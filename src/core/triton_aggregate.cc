#include "core/triton_aggregate.h"

#include <unordered_map>
#include <vector>

#include "core/triton_join.h"
#include "core/triton_pipeline.h"
#include "hash/bucket_chain_table.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"

namespace triton::core {

namespace {

/// SM-cycles per tuple for the scratchpad aggregation (hash + accumulate).
constexpr double kAggregateCyclesPerTuple = 7.0;

}  // namespace

std::pair<uint64_t, uint64_t> ReferenceAggregate(const data::Relation& r) {
  std::unordered_map<data::Key, uint64_t> sums;
  sums.reserve(r.rows());
  for (uint64_t i = 0; i < r.rows(); ++i) {
    sums[r.keys()[i]] += static_cast<uint64_t>(r.payload(0)[i]);
  }
  uint64_t checksum = 0;
  for (const auto& [k, v] : sums) {
    checksum += static_cast<uint64_t>(k) * 31 + v;
  }
  return {sums.size(), checksum};
}

util::StatusOr<AggregateRun> TritonAggregate::Run(exec::Device& dev,
                                                  const data::Relation& r) {
  if (r.payload_cols() == 0) {
    return util::Status::InvalidArgument(
        "aggregation needs one payload column");
  }
  AggregateRun run;
  const sim::HwSpec& hw = dev.hw();
  const uint32_t sms = hw.gpu.num_sms;

  // Radix bits: the join's derivation with only one relation flowing.
  uint32_t bits1, bits2;
  TritonJoin::DeriveBits(hw, r.rows(), 0, &bits1, &bits2);
  if (config_.bits1 != 0) bits1 = config_.bits1;
  if (config_.bits2 != 0) bits2 = config_.bits2;
  partition::RadixConfig radix1{0, bits1};
  partition::RadixConfig radix2 = radix1.Next(bits2);

  dev.ClearTrace();

  // --- Pass-1 front with caching, as in the Triton join ---
  auto front = RunFront(dev, radix1, {&r},
                        {.sms = sms, .cache_bytes = config_.cache_bytes});
  if (!front.ok()) return front.status();
  const partition::PartitionLayout& layout1 = front->rels[0].layout;
  const mem::Buffer& state = front->rels[0].state;

  // --- Second pass + scratchpad aggregation per partition ---
  partition::SharedPartitioner pass2;
  constexpr uint32_t kBuckets = hash::BucketChainTable::kDefaultBuckets;
  uint64_t groups = 0, checksum = 0;

  for (uint32_t p = 0; p < radix1.fanout(); ++p) {
    if (layout1.PartitionSize(p) == 0) continue;
    const partition::RowInput rows =
        partition::PartitionInputOf(state, layout1, p);
    partition::PrefixSumOptions ps2;
    ps2.name = "prefix_sum2";
    partition::PartitionLayout layout2 =
        GpuPrefixSum(dev, rows, radix2, sms, ps2);
    auto refined = dev.allocator().AllocateGpu(layout2.padded_tuples() *
                                               sizeof(partition::Tuple));
    if (!refined.ok()) return refined.status();
    partition::PartitionOptions p2;
    p2.name = "partition2";
    pass2.PartitionRows(dev, rows, layout2, *refined, p2);

    dev.Launch({.name = "aggregate"}, [&](exec::KernelContext& ctx) {
      const partition::Tuple* data = refined->as<partition::Tuple>();
      // One refined partition per thread block; per-block group counts and
      // checksums reduce in partition order after the fan-out.
      const uint32_t fan2 = radix2.fanout();
      std::vector<uint64_t> block_groups(fan2, 0);
      std::vector<uint64_t> block_checksums(fan2, 0);
      ctx.ForEachBlock(fan2, [&](exec::KernelContext& sub, uint32_t q) {
        uint64_t part_n = layout2.PartitionSize(q);
        if (part_n == 0) return;
        sub.SetSanitizerBlock(q);
        // Scratchpad hash aggregation: accumulate sums per key. The table
        // is rebuilt per partition; oversized partitions (heavy key
        // duplication) chunk gracefully since groups <= distinct keys.
        std::vector<uint32_t> heads(kBuckets, 0);
        std::vector<int64_t> keys(part_n), sums(part_n);
        std::vector<uint32_t> next(part_n);
        hash::BucketChainTable table(heads.data(), kBuckets, keys.data(),
                                     sums.data(), next.data(),
                                     static_cast<uint32_t>(part_n));
        layout2.ForEachSlice(q, [&](uint64_t begin, uint64_t count) {
          sub.ReadSeq(*refined, begin * sizeof(partition::Tuple),
                      count * sizeof(partition::Tuple));
          const uint32_t shift = bits1 + bits2;
          for (uint64_t i = begin; i < begin + count; ++i) {
            uint32_t e = table.FindFirst(data[i].key, shift);
            if (e != UINT32_MAX) {
              // Accumulate into the group with two's-complement wraparound:
              // the checksum folds sums as uint64_t, so this matches
              // ReferenceAggregate without signed overflow.
              sums[e] = static_cast<int64_t>(
                  static_cast<uint64_t>(sums[e]) +
                  static_cast<uint64_t>(data[i].value));
            } else {
              table.Insert(data[i].key, data[i].value, shift);
            }
          }
        });
        sub.Charge(static_cast<uint64_t>(part_n * kAggregateCyclesPerTuple));
        sub.AddTuples(part_n);
        block_groups[q] = table.size();
        if (!config_.distinct_only) {
          for (uint32_t e = 0; e < table.size(); ++e) {
            block_checksums[q] += static_cast<uint64_t>(keys[e]) * 31 +
                                  static_cast<uint64_t>(sums[e]);
          }
          // Grouped results stream back to CPU memory.
        } else {
          for (uint32_t e = 0; e < table.size(); ++e) {
            block_checksums[q] += static_cast<uint64_t>(keys[e]);
          }
        }
      });
      for (uint32_t q = 0; q < fan2; ++q) {
        groups += block_groups[q];
        checksum += block_checksums[q];
      }
    });
    dev.allocator().Free(*refined);
  }

  run.groups = groups;
  run.checksum = checksum;
  run.phases = dev.trace();
  for (const auto& ph : run.phases) run.totals.Merge(ph.counters);
  run.elapsed = dev.TraceElapsed();
  return run;
}

}  // namespace triton::core
