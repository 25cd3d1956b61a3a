#include "core/triton_join.h"

#include <algorithm>

#include "core/triton_pipeline.h"
#include "util/bits.h"

namespace triton::core {

void TritonJoin::DeriveBits(const sim::HwSpec& hw, uint64_t r_tuples,
                            uint64_t s_tuples, uint32_t* bits1,
                            uint32_t* bits2) {
  // Final partitions should hold ~1024 tuples (half the scratchpad table
  // capacity, leaving headroom for skew); the second pass contributes up
  // to 9 bits (a 512-way Shared pass, the paper's setting).
  uint32_t total =
      util::CeilLog2(util::CeilDiv(r_tuples, 1024));
  *bits2 = std::min(total, 9u);
  *bits1 = std::max(total - *bits2, 1u);
  // A pass-1 partition pair (R_i + S_i + the refined copy) must fit in
  // half the GPU memory alongside its double-buffered sibling.
  uint64_t pair_bytes =
      ((r_tuples + s_tuples) * sizeof(partition::Tuple)) >> *bits1;
  while (pair_bytes * 4 > hw.gpu_mem.capacity / 2) {
    ++*bits1;
    pair_bytes /= 2;
  }
}

util::StatusOr<join::JoinRun> TritonJoin::Run(exec::Device& dev,
                                              const data::Relation& r,
                                              const data::Relation& s) {
  join::JoinRun run;
  stats_ = TritonJoinStats();
  const sim::HwSpec& hw = dev.hw();
  const uint32_t sms = config_.sms == 0 ? hw.gpu.num_sms : config_.sms;

  uint32_t bits1, bits2;
  DeriveBits(hw, r.rows(), s.rows(), &bits1, &bits2);
  if (config_.bits1 != 0) bits1 = config_.bits1;
  if (config_.bits2 != 0) bits2 = config_.bits2;
  stats_.bits1 = bits1;
  stats_.bits2 = bits2;

  partition::RadixConfig radix1{0, bits1};

  dev.ClearTrace();

  // --- Pass-1 front (triton_pipeline.h); the pipeline reservation holds
  // the double-buffered pair and its refined copy ---
  auto front = RunFront(dev, radix1, {&r, &s},
                        {.sms = sms,
                         .gpu_prefix_sum = config_.gpu_prefix_sum,
                         .pass1 = config_.pass1,
                         .cache_bytes = config_.cache_bytes,
                         .reserve_pairs = 4});
  if (!front.ok()) return front.status();
  stats_.cached_fraction = front->cached_fraction;
  stats_.spilled_bytes = front->spilled_bytes;

  auto result = join::AllocateResult(dev, config_.result_mode, s.rows());
  if (!result.ok()) return result.status();
  auto staging = AllocateStaging(dev, *front, 1);
  if (!staging.ok()) return staging.status();

  // --- Pipelined second pass + join over partition pairs ---
  //
  // With overlap enabled (Section 5.2), the second-pass kernels and the
  // join run as concurrent kernels: one lane streams (possibly spilled)
  // data over the interconnect while the other lane computes. The two
  // lanes are combined as max(total bandwidth time, total compute time):
  // concurrent kernels share the GPU's issue slots, so summing compute
  // across lanes at the full-SM rate models two half-GPU kernels running
  // simultaneously.
  const PairBody body{.radix2 = radix1.Next(bits2),
                      .sms = sms,
                      .scheme = config_.scheme,
                      .staging = staging->valid() ? &*staging : nullptr,
                      .result = result->valid() ? &*result : nullptr};
  JoinTotals totals;
  Lanes lanes;
  for (uint32_t p = 0; p < radix1.fanout(); ++p) {
    util::Status st = JoinPair(dev, *front, p, body, 0, &totals, &lanes);
    if (!st.ok()) return st;
  }

  run.matches = totals.matches;
  run.checksum = totals.checksum;
  run.phases = dev.trace();
  for (const auto& ph : run.phases) run.totals.Merge(ph.counters);

  // --- Elapsed time: pass 1 is a barrier (Figure 10); the join phase then
  // runs as the two concurrent lanes described above (Figure 11) ---
  double t_front = run.PhaseTime("prefix_sum1") +
                   run.PhaseTime("partition1");
  double pipeline =
      config_.overlap ? std::max(lanes.bw, lanes.comp) : lanes.serial;
  run.elapsed = t_front + pipeline;
  return run;
}

}  // namespace triton::core
