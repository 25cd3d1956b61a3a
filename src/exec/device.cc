#include "exec/device.h"

#include <algorithm>

#include "exec/block_executor.h"
#include "util/logging.h"

namespace triton::exec {

KernelContext::KernelContext(Device* device, const KernelConfig& config)
    : device_(device), config_(config), san_(device->san_.get()) {}

uint64_t KernelContext::scratchpad_bytes() const {
  return device_->hw_.gpu.scratchpad_bytes;
}

uint32_t KernelContext::warp_size() const {
  return device_->hw_.gpu.warp_size;
}

const sim::HwSpec& KernelContext::hw() const { return device_->hw_; }

void KernelContext::Account(uint64_t addr, uint64_t size,
                            sim::PageLocation loc, bool is_write,
                            bool is_random, bool replay_tlb) {
  if (size == 0) return;
  if (san_ != nullptr) san_->RecordAccounted(addr, size, is_write);
  if (loc == sim::PageLocation::kGpuMem) {
    if (is_write) {
      counters_.gpu_mem_write += size;
      if (is_random) counters_.gpu_mem_random_write += size;
    } else {
      counters_.gpu_mem_read += size;
    }
  } else {
    // CPU-memory access: crosses the interconnect.
    sim::TxnStats txn =
        is_random ? device_->packetizer_.Access(addr, size, is_write)
                  : device_->packetizer_.Bulk(addr, size, is_write);
    if (is_write) {
      counters_.link_write_payload += txn.payload;
      counters_.link_write_physical += txn.physical;
      counters_.link_write_txns += txn.txns;
    } else {
      counters_.link_read_payload += txn.payload;
      counters_.link_read_physical += txn.physical;
      counters_.link_read_txns += txn.txns;
    }
  }
  if (is_random && replay_tlb) {
    SharedTlbAccess(addr, loc, /*with_latency=*/true);
  }
}

void KernelContext::SharedTlbAccess(uint64_t addr, sim::PageLocation loc,
                                    bool with_latency) {
  if (defer_tlb_) {
    tlb_log_.push_back({addr, loc,
                        with_latency ? TlbReplayKind::kLatency
                                     : TlbReplayKind::kRange});
    return;
  }
  auto tr = device_->tlb_.Access(addr, loc, &counters_);
  if (with_latency) {
    random_latency_sum_ += tr.latency;
    ++random_accesses_;
  }
}

void KernelContext::SharedTlbRun(uint64_t addr, uint64_t size,
                                 sim::PageLocation loc, bool with_latency) {
  DCHECK_GT(size, 0u);
  if (defer_tlb_) {
    const uint64_t range = device_->hw_.tlb.l2_entry_range;
    const TlbReplayKind kind =
        with_latency ? TlbReplayKind::kLatency : TlbReplayKind::kRange;
    for (uint64_t r = addr / range; r <= (addr + size - 1) / range; ++r) {
      tlb_log_.push_back({r * range, loc, kind});
    }
    return;
  }
  sim::TranslationRunResult run =
      device_->tlb_.TranslateRun(addr, size, loc, &counters_);
  if (with_latency) {
    random_latency_sum_ += run.latency_sum;
    random_accesses_ += run.accesses;
  }
}

void KernelContext::ResetForBlock(Device* device, const KernelConfig& config) {
  device_ = device;
  config_ = config;
  san_ = nullptr;
  san_fork_.reset();
  counters_ = sim::PerfCounters{};
  random_latency_sum_ = 0.0;
  random_accesses_ = 0;
  defer_tlb_ = true;
  tlb_log_.clear();
}

sim::TranslationResult KernelContext::EscalateMiss(uint64_t addr,
                                                   sim::PageLocation loc,
                                                   sim::PerfCounters* counters) {
  // Only deferred sub-contexts hand themselves out as escalation sinks;
  // the log replays through TlbSimulator::EscalateMiss at reduction. The
  // counters pointer is this context's own shard, so the increments can
  // wait for the replay too. Callers discard the result (see
  // TlbEscalationSink).
  DCHECK(defer_tlb_);
  DCHECK_EQ(counters, &counters_);
  (void)counters;
  tlb_log_.push_back({addr, loc, TlbReplayKind::kEscalation});
  return sim::TranslationResult{};
}

sim::TlbEscalationSink* KernelContext::escalation_sink() {
  if (defer_tlb_) return this;
  return &device_->tlb_;
}

void KernelContext::ReplayDeferredLog() {
  for (const auto& e : tlb_log_) {
    switch (e.kind) {
      case TlbReplayKind::kRange:
        device_->tlb_.Access(e.addr, e.loc, &counters_);
        break;
      case TlbReplayKind::kLatency: {
        auto tr = device_->tlb_.Access(e.addr, e.loc, &counters_);
        random_latency_sum_ += tr.latency;
        ++random_accesses_;
        break;
      }
      case TlbReplayKind::kEscalation:
        device_->tlb_.EscalateMiss(e.addr, e.loc, &counters_);
        break;
    }
  }
  tlb_log_.clear();
}

void KernelContext::ForEachBlock(
    uint32_t num_blocks,
    const std::function<void(KernelContext&, uint32_t)>& body) {
  RunBlocks(num_blocks, /*in_order=*/false, body);
}

void KernelContext::ForEachBlockInOrder(
    uint32_t num_blocks,
    const std::function<void(KernelContext&, uint32_t)>& body) {
  RunBlocks(num_blocks, /*in_order=*/true, body);
}

void KernelContext::RunBlocks(
    uint32_t num_blocks, bool in_order,
    const std::function<void(KernelContext&, uint32_t)>& body) {
  CHECK(!defer_tlb_) << "ForEachBlock cannot nest inside a block";
  // Sub-context arena: one frame per ForEachBlock, recycled across
  // launches. This mirrors the mem::Allocator BeginArena/EndArena frame
  // discipline for *host* objects — a launch used to heap-allocate one
  // KernelContext (plus its replay-log vector) per block, which dominated
  // small-kernel host time. Rewinding the simulated bump pointer instead
  // would change addresses and therefore modeled TLB physics; recycling
  // host contexts is invisible to the model. Thread-local so concurrent
  // launches on different devices never share a frame; contexts are fully
  // reinitialized (ResetForBlock) before each use and drop their sanitizer
  // forks when reduced so nothing outlives the device.
  //
  // Worker threads must reach the *launching* thread's frame, so the
  // dispatch lambda goes through an explicit pointer — a thread_local name
  // inside the lambda would resolve to each worker's own (empty) arena.
  thread_local std::vector<std::unique_ptr<KernelContext>> arena_tls;
  std::vector<std::unique_ptr<KernelContext>>& arena = arena_tls;
  if (arena.size() < num_blocks) {
    arena.reserve(num_blocks);
    while (arena.size() < num_blocks) {
      arena.push_back(std::make_unique<KernelContext>(device_, config_));
    }
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    KernelContext& sub = *arena[b];
    sub.ResetForBlock(device_, config_);
    if (san_ != nullptr) {
      sub.san_fork_ = san_->Fork();
      sub.san_ = sub.san_fork_.get();
    }
  }
  const std::unique_ptr<KernelContext>* subs = arena.data();
  // Each block checks its own write coverage on its own thread, right
  // after its body. Deterministic reduction, on this thread while later
  // blocks run: replay each block's shared-TLB log and merge its counter
  // shard and sanitizer state, strictly in block order. This is the only
  // place shared TLB state advances for these blocks, and the replay order
  // equals the serial execution order, so every counter and latency is
  // bit-identical to a single-threaded run.
  BlockExecutor::Global().Run(
      num_blocks,
      [subs, &body](uint32_t b) {
        KernelContext& sub = *subs[b];
        body(sub, b);
        if (sub.san_ != nullptr) sub.san_->FinishBlock();
      },
      [this, subs](uint32_t b) {
        KernelContext& sub = *subs[b];
        sub.ReplayDeferredLog();
        counters_.Merge(sub.counters_);
        random_latency_sum_ += sub.random_latency_sum_;
        random_accesses_ += sub.random_accesses_;
        if (san_ != nullptr) san_->MergeBlock(*sub.san_fork_);
        sub.san_fork_.reset();
        sub.san_ = nullptr;
      },
      in_order ? BlockExecutor::Order::kSequential
               : BlockExecutor::Order::kAny);
}

void KernelContext::AccessSeq(const mem::Buffer& buf, uint64_t offset,
                              uint64_t size, bool is_write) {
  if (size == 0) return;
  DCHECK_LE(offset + size, buf.size());
  // Walk the range page by page so interleaved placements split correctly;
  // runs of same-location pages are accounted in one shot. Translations are
  // replayed once per TLB entry range (sequential walks coalesce).
  const uint64_t page = buf.page_bytes();
  uint64_t pos = offset;
  uint64_t end = offset + size;
  while (pos < end) {
    sim::PageLocation loc = buf.LocationOf(pos);
    uint64_t run_end = pos;
    while (run_end < end && buf.LocationOf(run_end) == loc) {
      uint64_t page_end = (run_end / page + 1) * page;
      run_end = std::min(end, page_end);
      if (run_end < end && buf.LocationOf(run_end) != loc) break;
    }
    Account(buf.base_addr() + pos, run_end - pos, loc, is_write,
            /*is_random=*/false);
    // One translation per entry range touched by the run.
    SharedTlbRun(buf.base_addr() + pos, run_end - pos, loc,
                 /*with_latency=*/false);
    pos = run_end;
  }
}

void KernelContext::ReadRand(const mem::Buffer& buf, uint64_t offset,
                             uint64_t size) {
  DCHECK_LE(offset + size, buf.size());
  Account(buf.base_addr() + offset, size, buf.LocationOf(offset),
          /*is_write=*/false, /*is_random=*/true);
}

void KernelContext::WriteRand(const mem::Buffer& buf, uint64_t offset,
                              uint64_t size) {
  DCHECK_LE(offset + size, buf.size());
  Account(buf.base_addr() + offset, size, buf.LocationOf(offset),
          /*is_write=*/true, /*is_random=*/true);
}

void KernelContext::Flush(const mem::Buffer& buf, uint64_t offset,
                          uint64_t size) {
  if (size == 0) return;
  DCHECK_LE(offset + size, buf.size());
  const uint64_t addr = buf.base_addr() + offset;
  const sim::PageLocation loc = buf.LocationOf(offset);
  // Packetize the flush as one contiguous random write (the packetizer
  // splits it at cacheline boundaries, so a partial tail smaller than the
  // transaction size is charged its true payload plus the byte-enable
  // extension)...
  Account(addr, size, loc, /*is_write=*/true, /*is_random=*/true,
          /*replay_tlb=*/false);
  // ...but replay the TLB once per translation range touched: a flush that
  // straddles a range boundary needs both translations, which the plain
  // WriteRand path (one replay at the start address) under-counts. Inside
  // ForEachBlock the replay is deferred to the block-ordered reduction, so
  // a block never touches the shared TLB itself.
  SharedTlbRun(addr, size, loc, /*with_latency=*/true);
}

Device::Device(const sim::HwSpec& hw)
    : Device(hw, sanitizer::DefaultEnabled()) {}

Device::Device(const sim::HwSpec& hw, bool sanitize)
    : hw_(hw),
      cost_model_(hw),
      packetizer_(hw.link),
      tlb_(hw.tlb),
      allocator_(hw) {
  if (sanitize) {
    san_ = std::make_unique<sanitizer::DeviceSanitizer>();
    allocator_.set_observer(san_.get());
  }
}

Device::~Device() {
  if (san_ == nullptr) return;
  // Unconsumed violations are programming errors: tests that expect them
  // must collect them with TakeViolations().
  for (const auto& v : san_->violations()) {
    LOG(ERROR) << "DeviceSanitizer: " << v.message;
  }
  CHECK(san_->violations().empty())
      << san_->violations().size() << " unconsumed sanitizer violation(s), "
      << "first: " << san_->violations().front().message;
  allocator_.set_observer(nullptr);
}

KernelRecord Device::Launch(const KernelConfig& config,
                            const std::function<void(KernelContext&)>& body) {
  KernelConfig cfg = config;
  if (cfg.sms == 0) cfg.sms = hw_.gpu.num_sms;
  CHECK_LE(cfg.sms, hw_.gpu.num_sms);

  // The CUDA runtime flushes GPU TLBs before each kernel launch.
  tlb_.FlushGpuTlb();

  if (san_ != nullptr) san_->BeginLaunch(cfg.name);
  KernelContext ctx(this, cfg);
  body(ctx);
  if (san_ != nullptr) san_->EndLaunch(ctx.counters_);

  KernelRecord record;
  record.name = cfg.name;
  record.counters = ctx.counters_;
  record.sms = cfg.sms;
  double avg_latency = 0.0;
  uint64_t latency_accesses = 0;
  if (cfg.latency_bound && ctx.random_accesses_ > 0) {
    avg_latency = ctx.random_latency_sum_ /
                  static_cast<double>(ctx.random_accesses_);
    latency_accesses = ctx.random_accesses_;
  }
  record.time = cost_model_.Evaluate(ctx.counters_, cfg.sms, avg_latency,
                                     latency_accesses,
                                     cfg.occupancy_warps_per_sm);
  trace_.push_back(record);
  return record;
}

double Device::TraceElapsed() const {
  double total = 0.0;
  for (const auto& r : trace_) total += r.Elapsed();
  return total;
}

}  // namespace triton::exec
