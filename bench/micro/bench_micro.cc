// Microbenchmarks of the simulator's hot primitives (not a paper figure).
//
// Each series exercises one building block of the simulation — bulk TLB
// translation, link packetization, the SIMD radix inner loop, an
// end-to-end partition scatter, the per-tuple vs bulk functional-store
// path, the allocator cycle, the sanitizer's scratchpad shadow and one
// random access inside thread blocks — and records two kinds of results:
//
//   * Modeled quantities (simulated latencies, transaction counts,
//     checksums, PerfCounters) go through bench::Reporter into
//     BENCH_micro.json. They are pure functions of the inputs, so the
//     report is byte-identical across reruns and --threads settings; CI
//     diffs it against a committed baseline.
//
//   * Host ns/op goes to a stdout table only (never into the JSON) — the
//     CI microbench job uploads the log as an artifact so host-side
//     throughput is tracked without making wall-clock part of the gate.
//
// The store series doubles as an in-binary bit-identity probe: the
// per-tuple and StoreRun variants must produce identical buffer contents
// and identical PerfCounters, which is CHECKed before reporting.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "partition/hierarchical.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "sanitizer/sanitizer.h"
#include "sim/packetizer.h"
#include "sim/tlb.h"
#include "util/bits.h"

namespace triton {
namespace {

using bench::BenchEnv;

/// Defeats dead-code elimination in host-timing loops.
volatile uint64_t g_sink = 0;
void Sink(uint64_t v) { g_sink = g_sink + v; }

/// Best-of-`reps` host nanoseconds per operation for fn() performing `ops`
/// operations. Host-only: results never enter the JSON report.
template <typename Fn>
double HostNsPerOp(int64_t reps, uint64_t ops, Fn&& fn) {
  double best = 0.0;
  for (int64_t r = 0; r < (reps < 1 ? 1 : reps); ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count() /
                static_cast<double>(ops);
    if (best == 0.0 || ns < best) best = ns;
  }
  return best;
}

/// SplitMix64: deterministic key stream for checksum series.
uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Main(int argc, char** argv) {
  BenchEnv env(argc, argv, "micro", "Microbenchmarks",
               "Simulator primitive costs (modeled; host ns/op on stdout)");
  util::Table host({"primitive", "x", "host ns/op"});
  const int64_t reps = env.runs();

  // --- Bulk TLB translation: one TranslateRun per contiguous byte run ---
  // Strides a fixed op count of runs across 4x the (scaled) L2 TLB
  // coverage, so hit/miss mix varies with the run size. Modeled value is
  // the mean per-range latency; counters carry lookups/misses/IOMMU work.
  for (const char* pool : {"cpu", "gpu"}) {
    const sim::PageLocation loc = pool[0] == 'c'
                                      ? sim::PageLocation::kCpuMem
                                      : sim::PageLocation::kGpuMem;
    for (uint64_t size : {uint64_t{64}, uint64_t{4096}, uint64_t{65536},
                          uint64_t{1} << 20, uint64_t{1} << 24}) {
      const uint64_t ops = 4096;
      const uint64_t span = env.hw().tlb.l2_coverage * 4;
      sim::TlbSimulator tlb(env.hw().tlb);
      sim::PerfCounters c{};
      sim::TranslationRunResult total{};
      uint64_t addr = 0;
      for (uint64_t i = 0; i < ops; ++i) {
        sim::TranslationRunResult r = tlb.TranslateRun(addr, size, loc, &c);
        total.accesses += r.accesses;
        total.latency_sum += r.latency_sum;
        addr = (addr + size) % span;
      }
      bench::Measurement meas;
      meas.AddRun(total.latency_sum,
                  total.latency_sum / static_cast<double>(total.accesses) *
                      1e9,
                  c);
      env.reporter().Add(
          {.series = std::string("tlb-run-") + pool,
           .axis = "run_bytes",
           .x = static_cast<double>(size),
           .has_x = true,
           .unit = "ns_per_range",
           .m = meas,
           .extra = {{"ranges", static_cast<double>(total.accesses)}}});
      double ns = HostNsPerOp(reps, ops, [&] {
        sim::TlbSimulator t2(env.hw().tlb);
        sim::PerfCounters c2{};
        uint64_t a = 0;
        uint64_t acc = 0;
        for (uint64_t i = 0; i < ops; ++i) {
          acc += t2.TranslateRun(a, size, loc, &c2).accesses;
          a = (a + size) % span;
        }
        Sink(acc);
      });
      host.AddRow({std::string("tlb-run-") + pool, std::to_string(size),
                   util::FormatDouble(ns, 1)});
    }
  }

  // --- Link packetization: Access() per access size and alignment ---
  for (bool aligned : {true, false}) {
    const char* name = aligned ? "pkt-write-aligned" : "pkt-write-misalign";
    for (uint64_t size : {uint64_t{8}, uint64_t{16}, uint64_t{64},
                          uint64_t{128}, uint64_t{4096}}) {
      sim::Packetizer pkt(env.hw().link);
      const uint64_t addr = aligned ? 0 : 8;
      sim::TxnStats st = pkt.Access(addr, size, /*is_write=*/true);
      bench::Measurement meas;
      meas.AddRun(0.0, static_cast<double>(st.physical));
      env.reporter().Add(
          {.series = name,
           .axis = "access_bytes",
           .x = static_cast<double>(size),
           .has_x = true,
           .unit = "physical_bytes",
           .m = meas,
           .extra = {{"txns", static_cast<double>(st.txns)},
                     {"payload", static_cast<double>(st.payload)}}});
      const uint64_t ops = 1 << 16;
      double ns = HostNsPerOp(reps, ops, [&] {
        uint64_t acc = 0;
        for (uint64_t i = 0; i < ops; ++i) {
          acc += pkt.Access(addr + i * 128, size, true).physical;
        }
        Sink(acc);
      });
      host.AddRow({name, std::to_string(size), util::FormatDouble(ns, 2)});
    }
  }

  // --- SIMD radix inner loop: PartitionsOf over a key batch ---
  // The checksum (sum of partition indices; exact in a double) gates the
  // hash/partition function bit-for-bit. Host table compares the batched
  // loop against the scalar per-tuple PartitionOf it replaces.
  {
    const uint64_t n = 1 << 20;
    std::vector<data::Key> keys(n);
    uint64_t state = 7;
    for (uint64_t i = 0; i < n; ++i) {
      keys[i] = static_cast<data::Key>(SplitMix64(state) >> 1);
    }
    std::vector<uint32_t> pidx(n);
    for (uint32_t bits : {uint32_t{8}, uint32_t{14}}) {
      partition::RadixConfig radix{0, bits};
      radix.PartitionsOf(keys.data(), n, pidx.data());
      double checksum = 0.0;
      for (uint64_t i = 0; i < n; ++i) checksum += pidx[i];
      bench::Measurement meas;
      meas.AddRun(0.0, checksum);
      env.reporter().Add({.series = "radix-partitions-of",
                          .axis = "bits",
                          .x = static_cast<double>(bits),
                          .has_x = true,
                          .unit = "pidx_checksum",
                          .m = meas});
      double batched = HostNsPerOp(reps, n, [&] {
        radix.PartitionsOf(keys.data(), n, pidx.data());
        Sink(pidx[n - 1]);
      });
      double scalar = HostNsPerOp(reps, n, [&] {
        uint64_t acc = 0;
        for (uint64_t i = 0; i < n; ++i) acc += radix.PartitionOf(keys[i]);
        Sink(acc);
      });
      host.AddRow({"radix-batched", std::to_string(bits),
                   util::FormatDouble(batched, 2)});
      host.AddRow({"radix-scalar", std::to_string(bits),
                   util::FormatDouble(scalar, 2)});
    }
  }

  // --- End-to-end partition scatter (histogram + SWWC scatter) ---
  // Exercises the batched partitioner inner loops, BlockTlb::AccessRun and
  // KernelContext::StoreRun together; modeled counters and throughput are
  // the gated quantities.
  {
    const uint64_t n = env.Tuples(128);
    partition::SharedPartitioner shared;
    partition::HierarchicalPartitioner hierarchical;
    struct Algo {
      const char* name;
      partition::GpuPartitioner* p;
    } algos[] = {{"scatter-Shared", &shared},
                 {"scatter-Hierarchical", &hierarchical}};
    for (const Algo& algo : algos) {
      for (int64_t fanout : {int64_t{32}, int64_t{256}}) {
        exec::Device dev(env.hw());
        data::WorkloadConfig cfg;
        cfg.r_tuples = n;
        cfg.s_tuples = 1024;
        auto wl = data::GenerateWorkload(dev.allocator(), cfg);
        CHECK_OK(wl.status());
        partition::ColumnInput input = partition::ColumnInput::Of(wl->r);
        partition::RadixConfig radix{0, util::FloorLog2(fanout)};
        uint32_t blocks =
            algo.p == &hierarchical
                ? partition::HierarchicalRecommendedBlocks(
                      env.hw(), dev.allocator().gpu_free(), radix.fanout())
                : env.hw().gpu.num_sms;
        partition::PartitionLayout layout =
            CpuPrefixSum(dev, input, radix, blocks);
        auto out = dev.allocator().AllocateCpu(layout.padded_tuples() *
                                               sizeof(partition::Tuple));
        CHECK_OK(out.status());
        partition::PartitionRun run =
            algo.p->PartitionColumns(dev, input, layout, *out, {});
        bench::Measurement meas;
        meas.AddRun(run.Elapsed(),
                    static_cast<double>(n) / run.Elapsed() / 1e9,
                    run.record.counters);
        env.reporter().Add(
            {.series = algo.name,
             .axis = "fanout",
             .x = static_cast<double>(fanout),
             .has_x = true,
             .unit = "gtuples_per_s",
             .m = meas,
             .extra = {{"flushes", static_cast<double>(run.flushes)}}});
        double ns = HostNsPerOp(reps, n, [&] {
          partition::PartitionRun r2 =
              algo.p->PartitionColumns(dev, input, layout, *out, {});
          Sink(r2.flushes);
        });
        host.AddRow({algo.name, std::to_string(fanout),
                     util::FormatDouble(ns, 2)});
      }
    }
  }

  // --- Functional store: per-tuple Store vs bulk StoreRun ---
  // Identical accounting (one WriteSeq) and identical functional writes;
  // the CHECKs below are the in-binary bit-identity probe, and both
  // variants' checksums land in the gated report.
  {
    const uint64_t n = 1 << 20;
    std::vector<partition::Tuple> src(n);
    uint64_t state = 11;
    for (uint64_t i = 0; i < n; ++i) {
      src[i].key = static_cast<int64_t>(SplitMix64(state) >> 1);
      src[i].value = static_cast<int64_t>(i);
    }
    auto checksum_of = [&](const mem::Buffer& b) {
      double sum = 0.0;
      const auto* t = reinterpret_cast<const partition::Tuple*>(b.data());
      for (uint64_t i = 0; i < n; ++i) {
        sum += static_cast<double>(t[i].key % 65536);
      }
      return sum;
    };
    struct Variant {
      const char* name;
      bool bulk;
      exec::KernelRecord rec;
      double checksum = 0.0;
    } variants[] = {{"store-per-tuple", false, {}, 0.0},
                    {"store-run", true, {}, 0.0}};
    for (Variant& v : variants) {
      // Fresh Device per variant: the IOTLB survives launches, so a shared
      // device would hand the second variant a warm cache and different
      // counters. Cold-start both so the equality CHECK is meaningful.
      exec::Device dev(env.hw());
      auto buf = dev.allocator().AllocateCpu(n * sizeof(partition::Tuple));
      CHECK_OK(buf.status());
      v.rec = dev.Launch({.name = v.name}, [&](exec::KernelContext& ctx) {
        ctx.WriteSeq(*buf, 0, n * sizeof(partition::Tuple));
        if (v.bulk) {
          ctx.StoreRun(*buf, 0, src.data(), n);
        } else {
          for (uint64_t i = 0; i < n; ++i) ctx.Store(*buf, i, src[i]);
        }
      });
      v.checksum = checksum_of(*buf);
      const uint64_t ops = n;
      double ns = HostNsPerOp(reps, ops, [&] {
        dev.Launch({.name = "timing"}, [&](exec::KernelContext& ctx) {
          ctx.WriteSeq(*buf, 0, n * sizeof(partition::Tuple));
          if (v.bulk) {
            ctx.StoreRun(*buf, 0, src.data(), n);
          } else {
            for (uint64_t i = 0; i < n; ++i) ctx.Store(*buf, i, src[i]);
          }
        });
        Sink(static_cast<uint64_t>(buf->data()[0]));
      });
      host.AddRow({v.name, std::to_string(n), util::FormatDouble(ns, 2)});
    }
    CHECK(variants[0].rec.counters == variants[1].rec.counters);
    CHECK_EQ(variants[0].checksum, variants[1].checksum);
    for (const Variant& v : variants) {
      bench::Measurement meas;
      meas.AddRun(v.rec.Elapsed(), v.checksum, v.rec.counters);
      env.reporter().Add({.series = v.name,
                          .axis = "tuples",
                          .x = static_cast<double>(n),
                          .has_x = true,
                          .unit = "buffer_checksum",
                          .m = meas});
    }
  }

  // --- Allocator allocate/free cycle ---
  // The modeled value is the simulated base address of a probe allocation
  // after the churn. Simulated addresses come from the allocator's bump
  // pointer, so it is the same whether or not the host-side block pool is
  // compiled in (ASan and TSan builds leave it out).
  {
    exec::Device dev(env.hw());
    const uint64_t bytes = 1 << 20;
    const uint64_t cycles = 256;
    for (uint64_t i = 0; i < cycles; ++i) {
      auto b = dev.allocator().AllocateCpu(bytes);
      CHECK_OK(b.status());
      dev.allocator().Free(*b);
    }
    auto probe = dev.allocator().AllocateCpu(bytes);
    CHECK_OK(probe.status());
    bench::Measurement meas;
    meas.AddRun(0.0, static_cast<double>(probe->base_addr()));
    env.reporter().Add({.series = "alloc-cycle",
                        .axis = "bytes",
                        .x = static_cast<double>(bytes),
                        .has_x = true,
                        .unit = "probe_base_addr",
                        .m = meas});
    dev.allocator().Free(*probe);
    double ns = HostNsPerOp(reps, cycles, [&] {
      for (uint64_t i = 0; i < cycles; ++i) {
        auto b = dev.allocator().AllocateCpu(bytes);
        Sink(b->base_addr());
        dev.allocator().Free(*b);
      }
    });
    host.AddRow(
        {"alloc-cycle", std::to_string(bytes), util::FormatDouble(ns, 1)});
  }

  // --- Sanitizer scratchpad shadow: store/load/sync round-trips ---
  {
    const uint64_t cap = env.hw().gpu.scratchpad_bytes;
    const uint64_t slots = cap / 16;
    const uint64_t rounds = 64;
    sanitizer::DeviceSanitizer san;
    uint64_t violations = 0;
    {
      sanitizer::ScratchpadShadow shadow(&san, cap, cap);
      for (uint64_t r = 0; r < rounds; ++r) {
        for (uint64_t s = 0; s < slots; ++s) {
          shadow.Store(s * 16, 16, /*warp=*/static_cast<uint32_t>(s % 32));
        }
        shadow.Load(0, cap, /*warp=*/0);
        shadow.SyncRange(0, cap);
      }
      violations = san.TakeViolations().size();
    }
    bench::Measurement meas;
    meas.AddRun(0.0, static_cast<double>(violations));
    env.reporter().Add({.series = "sanitizer-shadow",
                        .axis = "ops",
                        .x = static_cast<double>(slots * rounds),
                        .has_x = true,
                        .unit = "violations",
                        .m = meas});
    double ns = HostNsPerOp(reps, slots * rounds, [&] {
      sanitizer::DeviceSanitizer s2;
      sanitizer::ScratchpadShadow shadow(&s2, cap, cap);
      for (uint64_t r = 0; r < rounds; ++r) {
        for (uint64_t s = 0; s < slots; ++s) {
          shadow.Store(s * 16, 16, static_cast<uint32_t>(s % 32));
        }
        shadow.Load(0, cap, 0);
        shadow.SyncRange(0, cap);
      }
      Sink(s2.TakeViolations().size());
    });
    host.AddRow({"sanitizer-shadow", std::to_string(slots * rounds),
                 util::FormatDouble(ns, 1)});
  }

  // --- One random access inside thread blocks, and its replay alone ---
  // Host rows only: the modeled side is what every NPJ series already
  // reports. `rand-read-block` is the whole per-access path of a kernel:
  // ReadRand in a ForEachBlock body (page lookup, packetization, replay-log
  // append) plus the launching thread's replay of the log through the
  // shared TLB. `tlb-access` replays the same address stream with
  // TlbSimulator::Access alone. The buffer spans 4x the L2 TLB coverage,
  // a quarter of it in GPU memory.
  {
    exec::Device dev(env.hw(), /*sanitize=*/false);
    const uint64_t bytes = 4 * env.hw().tlb.l2_coverage;
    auto buf = dev.allocator().AllocateInterleaved(bytes, bytes / 4);
    CHECK_OK(buf.status());
    const uint32_t blocks = 256;
    const uint64_t per_block = 4096;
    const uint64_t ops = blocks * per_block;
    std::vector<uint64_t> offsets(ops);
    std::vector<uint64_t> addrs(ops);
    std::vector<sim::PageLocation> locs(ops);
    uint64_t state = 0x5eed;
    for (uint64_t i = 0; i < ops; ++i) {
      offsets[i] = SplitMix64(state) % (bytes / 16) * 16;
      addrs[i] = buf->base_addr() + offsets[i];
      locs[i] = buf->LocationOf(offsets[i]);
    }
    double ns = HostNsPerOp(reps, ops, [&] {
      exec::KernelRecord rec = dev.Launch(
          {.name = "rand-read-block"}, [&](exec::KernelContext& ctx) {
            ctx.ForEachBlock(blocks, [&](exec::KernelContext& sub,
                                         uint32_t b) {
              for (uint64_t i = b * per_block; i < (b + 1) * per_block; ++i) {
                sub.ReadRand(*buf, offsets[i], 16);
              }
            });
          });
      Sink(rec.counters.gpu_tlb_misses);
    });
    host.AddRow({"rand-read-block", std::to_string(ops),
                 util::FormatDouble(ns, 1)});
    sim::TlbSimulator tlb(env.hw().tlb);
    ns = HostNsPerOp(reps, ops, [&] {
      sim::PerfCounters c{};
      tlb.FlushGpuTlb();  // as every launch does
      for (uint64_t i = 0; i < ops; ++i) tlb.Access(addrs[i], locs[i], &c);
      Sink(c.gpu_tlb_misses);
    });
    host.AddRow({"tlb-access", std::to_string(ops), util::FormatDouble(ns, 1)});
    dev.allocator().Free(*buf);
  }

  env.Emit(host, "Host-side cost of simulator primitives (ns/op; best of "
                 "--runs; stdout only, never in the JSON report)");
  return env.Finish();
}

}  // namespace
}  // namespace triton

int main(int argc, char** argv) { return triton::Main(argc, argv); }
