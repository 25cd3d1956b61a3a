#include "partition/cpu_swwc.h"

#include <algorithm>

#include "util/bits.h"

namespace triton::partition {

uint32_t CpuMaxSinglePassBits(const sim::CpuSpec& cpu) {
  // One 128-byte SWWC buffer per partition per thread; buffers may use half
  // the per-core LLC share.
  uint64_t max_fanout = (cpu.llc_per_core / 2) / 128;
  if (max_fanout == 0) return 0;
  return util::FloorLog2(max_fanout);
}

uint32_t CpuPartitionPasses(const sim::CpuSpec& cpu, uint32_t bits) {
  uint32_t per_pass = std::max(1u, CpuMaxSinglePassBits(cpu));
  return (bits + per_pass - 1) / per_pass;
}

double CpuPartitionRate(const sim::CpuSpec& cpu, uint32_t bits,
                        uint32_t passes) {
  double rate = cpu.partition_bw;
  uint32_t per_pass_bits = (bits + passes - 1) / passes;
  if (per_pass_bits > 12) rate *= 1.0 - 0.04 * (per_pass_bits - 12);
  return rate;
}

double CpuDmaBandwidth(const sim::HwSpec& hw) {
  return hw.link.raw_bandwidth_per_dir * 0.85;
}

PartitionRun CpuSwwcPartitioner::PartitionColumns(
    exec::Device& dev, const ColumnInput& input, const PartitionLayout& layout,
    mem::Buffer& out, const PartitionOptions& opts) {
  const sim::CpuSpec& cpu = cpu_ != nullptr ? *cpu_ : dev.hw().cpu;
  Tuple* out_rows = out.as<Tuple>();
  const RadixConfig radix = layout.radix();
  const uint32_t fanout = radix.fanout();
  const uint32_t num_blocks = layout.num_blocks();

  // Functional scatter (single logical pass; intermediate passes of a
  // two-pass plan produce the same final partitions).
  PartitionRun run;
  const uint64_t n = input.size();
  const uint64_t chunk = (n + num_blocks - 1) / num_blocks;
  std::vector<uint64_t> cursors(fanout);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    uint64_t begin = static_cast<uint64_t>(b) * chunk;
    uint64_t end = std::min(n, begin + chunk);
    for (uint32_t p = 0; p < fanout; ++p) cursors[p] = layout.SliceBegin(p, b);
    Tuple batch[kBatchTuples];
    uint32_t pidx[kBatchTuples];
    for (uint64_t base = begin; base < end; base += kBatchTuples) {
      const uint64_t m = std::min<uint64_t>(end - base, kBatchTuples);
      input.GetBatch(base, m, batch);
      radix.PartitionsOf(batch, m, pidx);
      for (uint64_t j = 0; j < m; ++j) {
        out_rows[cursors[pidx[j]]++] = batch[j];
      }
    }
  }

  // Analytic cost model.
  exec::KernelRecord& rec = run.record;
  rec.name = opts.name.empty() ? "cpu_swwc" : opts.name;
  rec.sms = 0;
  const uint64_t in_bytes = n * input.BytesPerTuple();
  const uint64_t out_bytes = n * sizeof(Tuple);
  const uint32_t passes = CpuPartitionPasses(cpu, radix.bits);
  rec.counters.tuples = n;
  rec.counters.cpu_mem_read = in_bytes * passes;
  run.flushes = util::CeilDiv(out_bytes, 128) * passes;

  double rate = CpuPartitionRate(cpu, radix.bits, passes);
  bool to_gpu = out.GpuBytes() > 0;
  if (to_gpu) {
    // Writes cross the interconnect in DMA-sized transactions, each
    // carrying a packet header.
    const sim::InterconnectSpec& link = dev.hw().link;
    rate = std::min(rate, CpuDmaBandwidth(dev.hw()));
    rec.counters.link_write_payload = out_bytes;
    rec.counters.link_write_physical =
        out_bytes * (link.max_dma_payload + link.header_bytes) /
        link.max_dma_payload;
    rec.counters.link_write_txns =
        util::CeilDiv(out_bytes, link.max_dma_payload);
  } else {
    rec.counters.cpu_mem_write = out_bytes * passes;
  }
  rec.time.cpu_mem = static_cast<double>(in_bytes) * passes / rate;
  dev.Record(rec);
  return run;
}

}  // namespace triton::partition
