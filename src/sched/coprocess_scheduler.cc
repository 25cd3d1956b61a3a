#include "sched/coprocess_scheduler.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "core/triton_pipeline.h"
#include "exec/block_executor.h"
#include "hash/bucket_chain_table.h"
#include "sched/predict.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/random.h"

namespace triton::sched {

namespace {

/// A pass-1 partition pair: the scheduler's morsel.
struct PairDesc {
  uint32_t p = 0;
  uint64_t r_n = 0;
  uint64_t s_n = 0;
  uint64_t tuples() const { return r_n + s_n; }
};

/// CPU side of one morsel: a bucket-chaining table over R_i, built by one
/// block and then probed by one block per pass-1 slice of S_i.
struct CpuPairTable {
  std::vector<uint32_t> heads;
  std::vector<int64_t> keys;
  std::vector<int64_t> values;
  std::vector<uint32_t> next;
  std::optional<hash::BucketChainTable> table;
};

/// One CPU probe block: a pass-1 slice of S_i against its pair's table.
struct SliceProbe {
  size_t pair = 0;  // index of the pair among the wave's CPU pairs
  uint64_t begin = 0;
  uint64_t count = 0;
};

/// Outcome of one CPU probe block, reduced in (pair, slice) order.
struct ProbeOutcome {
  uint64_t matches = 0;
  uint64_t checksum = 0;
  std::vector<partition::Tuple> rows;
};

}  // namespace

double BoundedPipelineSeconds(const std::vector<double>& bw_stage,
                              const std::vector<double>& compute_stage,
                              uint32_t depth) {
  CHECK_EQ(bw_stage.size(), compute_stage.size());
  const size_t n = bw_stage.size();
  if (n == 0) return 0.0;
  const uint32_t d = std::max(depth, 1u);
  std::vector<double> comp_done(n, 0.0);
  double prev_bw_done = 0.0;
  double prev_comp_done = 0.0;
  for (size_t k = 0; k < n; ++k) {
    // The copy-in of pair k waits for the previous copy-in (the link is
    // serial) and for its staging slot, which pair k - depth occupies
    // until its compute finishes.
    double bw_start = prev_bw_done;
    if (k >= d) bw_start = std::max(bw_start, comp_done[k - d]);
    const double bw_done = bw_start + bw_stage[k];
    // Compute of pair k needs its data staged and the GPU free.
    const double comp_start = std::max(bw_done, prev_comp_done);
    comp_done[k] = comp_start + compute_stage[k];
    prev_bw_done = bw_done;
    prev_comp_done = comp_done[k];
  }
  return comp_done[n - 1];
}

void CoProcessScheduler::DeriveBits(const sim::HwSpec& hw, uint64_t r_tuples,
                                    uint64_t s_tuples, uint32_t* bits1,
                                    uint32_t* bits2) {
  // Same total refinement depth as TritonJoin::DeriveBits (final
  // partitions of ~1024 tuples), but pass 1 claims at least kMinPairBits
  // of it so the split always has >= 32 morsels to work with; the task
  // scheduler's per-refined-pair cost depends only on the total, so
  // shifting bits between the passes keeps the pipeline cost comparable.
  uint32_t total = util::CeilLog2(util::CeilDiv(r_tuples, 1024));
  total = std::max(total, 2u);
  uint32_t b1 = std::max(total > 9 ? total - 9 : 1u, kMinPairBits);
  if (b1 >= total) b1 = total - 1;
  uint32_t b2 = total - b1;
  // A pair (R_i + S_i) must fit the GPU-memory pipeline budget (same rule
  // as TritonJoin).
  uint64_t pair_bytes =
      ((r_tuples + s_tuples) * sizeof(partition::Tuple)) >> b1;
  while (pair_bytes * 4 > hw.gpu_mem.capacity / 2) {
    ++b1;
    pair_bytes /= 2;
  }
  *bits1 = b1;
  *bits2 = b2;
}

util::StatusOr<join::JoinRun> CoProcessScheduler::Run(
    exec::Device& dev, const data::Relation& r, const data::Relation& s) {
  join::JoinRun run;
  stats_ = CoProcessStats();
  const sim::HwSpec& hw = dev.hw();
  const uint32_t sms = config_.sms == 0 ? hw.gpu.num_sms : config_.sms;

  uint32_t bits1, bits2;
  DeriveBits(hw, r.rows(), s.rows(), &bits1, &bits2);
  if (config_.bits1 != 0) bits1 = config_.bits1;
  if (config_.bits2 != 0) bits2 = config_.bits2;
  stats_.bits1 = bits1;
  stats_.bits2 = bits2;

  partition::RadixConfig radix1{0, bits1};
  const uint32_t depth = std::max(config_.staging_depth, 1u);

  dev.ClearTrace();

  // --- Shared front, exactly the Triton join's (the build side crosses
  // the link once, whatever the split). The pipeline reservation holds
  // `depth` staging slots plus the refined pair's double buffer ---
  auto front = core::RunFront(dev, radix1, {&r, &s},
                              {.sms = sms, .reserve_pairs = depth + 2});
  if (!front.ok()) return front.status();
  stats_.cached_fraction = front->cached_fraction;
  stats_.spilled_bytes = front->spilled_bytes;
  const partition::PartitionLayout& r_layout1 = front->rels[0].layout;
  const partition::PartitionLayout& s_layout1 = front->rels[1].layout;

  auto result = join::AllocateResult(dev, config_.result_mode, s.rows());
  if (!result.ok()) return result.status();

  // --- Morsels: the non-empty pass-1 pairs, in pair-index order ---
  std::vector<PairDesc> pairs;
  uint64_t total_tuples = 0;
  for (uint32_t p = 0; p < radix1.fanout(); ++p) {
    PairDesc pd{p, r_layout1.PartitionSize(p), s_layout1.PartitionSize(p)};
    if (pd.r_n == 0 || pd.s_n == 0) continue;
    total_tuples += pd.tuples();
    pairs.push_back(pd);
  }
  stats_.pairs_total = static_cast<uint32_t>(pairs.size());

  // --- Initial split from the cost model: equalize the predicted
  // finishing times of the two sides, i.e. f = rho_cpu / (rho_cpu +
  // rho_gpu) over the backends' predicted tuple rates ---
  stats_.predicted_cpu_seconds =
      PredictCpuRadixSeconds(hw, r.rows(), s.rows(), config_.scheme);
  stats_.predicted_gpu_seconds = PredictTritonSeconds(hw, r.rows(), s.rows());
  double cpu_rate = 0.0, gpu_rate = 0.0;
  {
    const uint64_t avg_r = std::max<uint64_t>(r.rows() >> bits1, 1);
    const uint64_t avg_s = std::max<uint64_t>(s.rows() >> bits1, 1);
    CpuPairCost pc = PredictCpuPairCost(hw, avg_r, avg_s,
                                        stats_.cached_fraction,
                                        config_.scheme);
    if (pc.Seconds() > 0.0) {
      cpu_rate = static_cast<double>(avg_r + avg_s) / pc.Seconds();
    }
    TritonPrediction tp = PredictTritonPhases(hw, r.rows(), s.rows());
    if (tp.pipeline_seconds > 0.0) {
      gpu_rate = static_cast<double>(total_tuples) / tp.pipeline_seconds;
    }
  }
  double f = config_.split_ratio;
  if (f < 0.0) {
    f = cpu_rate + gpu_rate > 0.0 ? cpu_rate / (cpu_rate + gpu_rate) : 0.0;
    f = std::clamp(f, 0.0, 0.9);
  }
  f = std::clamp(f, 0.0, 1.0);
  stats_.initial_cpu_fraction = f;
  util::Lcg64 rng(config_.seed);

  // --- Bounded staging queue through the interconnect: `depth` GPU-side
  // slots, reused round-robin; slot lifetime is enforced by the pipeline
  // time model (BoundedPipelineSeconds) ---
  auto staging = core::AllocateStaging(dev, *front, depth);
  if (!staging.ok()) return staging.status();
  const core::PairBody gpu_body{
      .radix2 = radix1.Next(bits2),
      .sms = sms,
      .scheme = config_.scheme,
      .staging = staging->valid() ? &*staging : nullptr,
      .result = result->valid() ? &*result : nullptr};

  core::JoinTotals totals;
  std::vector<double> gpu_bw, gpu_comp;  // per-GPU-pair pipeline lanes
  uint64_t cpu_tuples_total = 0, assigned_tuples = 0;

  // CPU side of one morsel, functional half: join the pair in place from
  // the pass-1 state with a bucket-chaining table over R_i. Runs on the
  // BlockExecutor pool: one block builds each pair's table, then one block
  // probes each pass-1 slice of S_i. Outcomes land in per-slice slots and
  // are reduced in (pair, slice) order, which is S_i's storage order.
  const partition::Tuple* r1_rows =
      front->rels[0].state.as<partition::Tuple>();
  const partition::Tuple* s1_rows =
      front->rels[1].state.as<partition::Tuple>();
  const bool materialize = result->valid();
  const uint64_t result_rows =
      materialize ? result->size() / sizeof(partition::Tuple) : 0;
  auto cpu_build = [&](const PairDesc& pd, CpuPairTable* t) {
    // Keep chains short for pairs much larger than the scratchpad table:
    // the CPU's LLC-resident table is not bucket-limited the way the
    // scratchpad one is (the modeled cost already pays the sub-partition
    // passes that make it cache-resident).
    uint32_t log2_buckets = 11;
    while ((uint64_t{1} << log2_buckets) * 4 < pd.r_n && log2_buckets < 20) {
      ++log2_buckets;
    }
    const uint32_t buckets = 1u << log2_buckets;
    t->heads.assign(buckets, 0u);
    t->keys.resize(pd.r_n);
    t->values.resize(pd.r_n);
    t->next.resize(pd.r_n);
    hash::BucketChainTable& table = t->table.emplace(
        t->heads.data(), buckets, t->keys.data(), t->values.data(),
        t->next.data(), static_cast<uint32_t>(pd.r_n));
    r_layout1.ForEachSlice(pd.p, [&](uint64_t begin, uint64_t count) {
      for (uint64_t i = begin; i < begin + count; ++i) {
        table.Insert(r1_rows[i].key, r1_rows[i].value, bits1);
      }
    });
  };
  auto cpu_probe = [&](const hash::BucketChainTable& table,
                       const SliceProbe& sp, ProbeOutcome* out) {
    if (materialize) out->rows.reserve(sp.count);
    for (uint64_t i = sp.begin; i < sp.begin + sp.count; ++i) {
      table.Probe(s1_rows[i].key, bits1, [&](int64_t build_val) {
        if (materialize) {
          out->rows.push_back(partition::Tuple{build_val, s1_rows[i].value});
        }
        ++out->matches;
        out->checksum += static_cast<uint64_t>(build_val) +
                         static_cast<uint64_t>(s1_rows[i].value);
      });
    }
  };

  // --- Morsel waves: assign pairs to a side in pair-index order, run the
  // CPU side's functional joins on the executor pool, then reduce
  // everything in pair order (records, results, pipeline lanes) ---
  const uint32_t wave_pairs =
      config_.wave_pairs != 0
          ? config_.wave_pairs
          : std::clamp<uint32_t>(
                static_cast<uint32_t>(pairs.size() / 8), 4, 64);
  size_t done = 0;
  while (done < pairs.size()) {
    const size_t wave_end = std::min(pairs.size(), done + wave_pairs);
    CoProcessWave wave;
    wave.target_cpu_fraction = f;

    // Greedy nested assignment: pair i goes to the CPU while the running
    // CPU tuple share stays within the target f. Deterministic in pair
    // order; the CPU pair set grows monotonically with f.
    std::vector<uint8_t> to_cpu(wave_end - done, 0);
    std::vector<size_t> cpu_idx;
    uint64_t wave_cpu_tuples = 0, wave_gpu_tuples = 0;
    for (size_t i = done; i < wave_end; ++i) {
      const uint64_t n_i = pairs[i].tuples();
      const bool cpu_side =
          static_cast<double>(cpu_tuples_total + n_i) <=
          f * static_cast<double>(assigned_tuples + n_i);
      assigned_tuples += n_i;
      if (cpu_side) {
        to_cpu[i - done] = 1;
        cpu_idx.push_back(i);
        cpu_tuples_total += n_i;
        wave_cpu_tuples += n_i;
      } else {
        wave_gpu_tuples += n_i;
      }
    }

    std::vector<CpuPairTable> tables(cpu_idx.size());
    std::vector<SliceProbe> probes;  // in (pair, slice) order
    for (size_t k = 0; k < cpu_idx.size(); ++k) {
      s_layout1.ForEachSlice(pairs[cpu_idx[k]].p,
                             [&](uint64_t begin, uint64_t count) {
                               probes.push_back({k, begin, count});
                             });
    }
    std::vector<ProbeOutcome> outs(probes.size());
    exec::BlockExecutor::Global().Run(
        static_cast<uint32_t>(cpu_idx.size()),
        [&](uint32_t k) { cpu_build(pairs[cpu_idx[k]], &tables[k]); });
    exec::BlockExecutor::Global().Run(
        static_cast<uint32_t>(probes.size()), [&](uint32_t b) {
          cpu_probe(*tables[probes[b].pair].table, probes[b], &outs[b]);
        });

    size_t cpu_k = 0, probe_b = 0;
    for (size_t i = done; i < wave_end; ++i) {
      const PairDesc& pd = pairs[i];
      ++wave.pairs;
      if (to_cpu[i - done]) {
        const size_t k = cpu_k++;
        const CpuPairCost cost = PredictCpuPairCost(
            hw, pd.r_n, pd.s_n, stats_.cached_fraction, config_.scheme);
        const uint64_t pair_bytes = pd.tuples() * sizeof(partition::Tuple);
        const uint64_t link_payload = static_cast<uint64_t>(
            static_cast<double>(pair_bytes) * stats_.cached_fraction);
        exec::KernelRecord rec;
        rec.name = "coproc_cpu_pair";
        rec.sms = 0;
        rec.counters.tuples = pd.tuples();
        rec.counters.link_read_payload = link_payload;
        rec.counters.link_read_physical =
            link_payload * (hw.link.max_dma_payload + hw.link.header_bytes) /
            hw.link.max_dma_payload;
        rec.counters.link_read_txns =
            util::CeilDiv(link_payload, hw.link.max_dma_payload);
        rec.counters.cpu_mem_read = (pair_bytes - link_payload) +
                                    pair_bytes * cost.extra_passes;
        rec.counters.cpu_mem_write = pair_bytes * cost.extra_passes;
        rec.time.link = cost.link_seconds;
        rec.time.cpu_mem = cost.read_seconds + cost.partition_seconds;
        rec.time.compute = cost.join_seconds;
        for (; probe_b < probes.size() && probes[probe_b].pair == k;
             ++probe_b) {
          const ProbeOutcome& out = outs[probe_b];
          totals.matches += out.matches;
          totals.checksum += out.checksum;
          if (out.rows.empty()) continue;
          if (out.rows.size() > result_rows - totals.result_cursor) {
            return join::TooManyMatches("co-processing CPU pair join",
                                        result_rows);
          }
          std::memcpy(result->as<partition::Tuple>() + totals.result_cursor,
                      out.rows.data(),
                      out.rows.size() * sizeof(partition::Tuple));
          totals.result_cursor += out.rows.size();
          rec.counters.cpu_mem_write +=
              out.rows.size() * sizeof(partition::Tuple);
        }
        dev.Record(rec);
        const double pair_seconds = cost.Seconds();
        stats_.cpu_seconds += pair_seconds;
        wave.cpu_seconds += pair_seconds;
        ++wave.cpu_pairs;
        ++stats_.cpu_pairs;
      } else {
        // GPU side: Triton's pair body, staging the pair into its
        // bounded-queue slot when pass-1 state spilled.
        const uint64_t slot_base =
            (stats_.gpu_pairs % depth) * front->max_pair;
        core::Lanes lanes;
        util::Status st = core::JoinPair(dev, *front, pd.p, gpu_body,
                                         slot_base, &totals, &lanes);
        if (!st.ok()) return st;
        gpu_bw.push_back(lanes.bw);
        gpu_comp.push_back(lanes.comp);
        wave.gpu_seconds += std::max(lanes.bw, lanes.comp);
        ++stats_.gpu_pairs;
      }
    }

    // Adaptive rebalance from observed per-morsel modeled seconds: move
    // the share toward equalizing the two sides' rates, with a small
    // seeded dither so ties break reproducibly but not sticky.
    if (config_.adaptive && wave_end < pairs.size()) {
      if (wave_cpu_tuples > 0 && wave.cpu_seconds > 0.0) {
        cpu_rate = static_cast<double>(wave_cpu_tuples) / wave.cpu_seconds;
      }
      if (wave_gpu_tuples > 0 && wave.gpu_seconds > 0.0) {
        gpu_rate = static_cast<double>(wave_gpu_tuples) / wave.gpu_seconds;
      }
      if (cpu_rate + gpu_rate > 0.0) {
        const double dither = (rng.NextDouble() - 0.5) * 0.01;
        f = std::clamp(cpu_rate / (cpu_rate + gpu_rate) + dither, 0.0, 0.9);
      }
    }
    stats_.waves.push_back(wave);
    done = wave_end;
  }

  run.matches = totals.matches;
  run.checksum = totals.checksum;
  run.phases = dev.trace();
  for (const auto& ph : run.phases) run.totals.Merge(ph.counters);

  // --- Elapsed: shared pass-1 barrier, then both backends run
  // concurrently — the CPU chews its pairs while the GPU pipeline streams
  // and joins the rest through the bounded staging queue ---
  stats_.front_seconds =
      run.PhaseTime("prefix_sum1") + run.PhaseTime("partition1");
  stats_.gpu_pipeline_seconds =
      BoundedPipelineSeconds(gpu_bw, gpu_comp, depth);
  stats_.final_cpu_fraction =
      total_tuples > 0
          ? static_cast<double>(cpu_tuples_total) /
                static_cast<double>(total_tuples)
          : 0.0;
  run.elapsed = stats_.front_seconds +
                std::max(stats_.cpu_seconds, stats_.gpu_pipeline_seconds);
  return run;
}

}  // namespace triton::sched
