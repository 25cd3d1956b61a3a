#include "sanitizer/sanitizer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/logging.h"

namespace triton::sanitizer {

namespace {

/// -1 unknown, 0 disabled, 1 enabled.
int g_default_enabled = 0;

}  // namespace

bool DefaultEnabled() {
  const char* env = std::getenv("TRITON_SANITIZER");
  if (env != nullptr && env[0] != '\0') {
    return std::strcmp(env, "0") != 0;
  }
  return g_default_enabled != 0;
}

void SetDefaultEnabled(bool enabled) { g_default_enabled = enabled ? 1 : 0; }

const char* ViolationCodeName(ViolationCode code) {
  switch (code) {
    case ViolationCode::kAccountedOutOfBounds:
      return "AccountedOutOfBounds";
    case ViolationCode::kUnaccountedWrite:
      return "UnaccountedWrite";
    case ViolationCode::kScratchpadOutOfBounds:
      return "ScratchpadOutOfBounds";
    case ViolationCode::kScratchpadUseBeforeInit:
      return "ScratchpadUseBeforeInit";
    case ViolationCode::kScratchpadRace:
      return "ScratchpadRace";
    case ViolationCode::kLockProtocol:
      return "LockProtocol";
    case ViolationCode::kCounterInvariant:
      return "CounterInvariant";
    case ViolationCode::kArenaLiveness:
      return "ArenaLiveness";
  }
  return "Unknown";
}

util::Status Violation::ToStatus() const {
  return util::Status::FailedPrecondition(std::string(ViolationCodeName(code)) +
                                          ": " + message);
}

// --- Liveness ---

void DeviceSanitizer::OnAlloc(const mem::Buffer& buffer) {
  live_[buffer.base_addr()] = LiveAllocation{buffer.size()};
  last_found_ = nullptr;
}

void DeviceSanitizer::OnFree(const mem::Buffer& buffer) {
  const uint64_t base = buffer.base_addr();
  live_.erase(base);
  last_found_ = nullptr;
  // A later allocation may reuse the address; drop stale shadow intervals.
  functional_writes_.erase(base);
  accounted_writes_.erase(base);
}

void DeviceSanitizer::OnArenaBegin(uint64_t id, uint64_t base_addr) {
  open_arenas_[id] = base_addr;
}

void DeviceSanitizer::OnArenaEnd(uint64_t id) {
  auto it = open_arenas_.find(id);
  if (it == open_arenas_.end()) {
    Report(ViolationCode::kArenaLiveness,
           "arena " + std::to_string(id) + " closed but was never opened");
    return;
  }
  const uint64_t base = it->second;
  // Independent audit of the allocator's liveness accounting: every
  // allocation handed out inside the frame lives at or above its base
  // address (the bump pointer never moves backwards while a frame is
  // open), so anything still live up there outlives its arena.
  for (const auto& [addr, alloc] : live_) {
    if (addr >= base) {
      std::ostringstream os;
      os << "arena " << id << " closed with live allocation at 0x"
         << std::hex << addr << std::dec << " (" << alloc.size << " bytes)";
      Report(ViolationCode::kArenaLiveness, os.str());
    }
  }
  open_arenas_.erase(it);
}

void DeviceSanitizer::OnArenaViolation(uint64_t id,
                                       const std::string& message) {
  Report(ViolationCode::kArenaLiveness,
         "arena " + std::to_string(id) + ": " + message);
}

const DeviceSanitizer::LiveMap::value_type* DeviceSanitizer::FindAllocation(
    uint64_t addr) {
  if (last_found_ != nullptr && addr >= last_found_->first &&
      addr < last_found_->first + last_found_->second.size) {
    return last_found_;
  }
  const LiveMap& live = parent_ != nullptr ? parent_->live_ : live_;
  auto it = live.upper_bound(addr);
  if (it == live.begin()) return nullptr;
  --it;
  if (addr >= it->first + it->second.size) return nullptr;
  last_found_ = &*it;
  return last_found_;
}

// --- Launch lifecycle ---

void DeviceSanitizer::BeginLaunch(const std::string& kernel) {
  scope_ = Scope();
  scope_.kernel = kernel;
  in_launch_ = true;
  functional_writes_.clear();
  accounted_writes_.clear();
  expect_set_ = false;
}

void DeviceSanitizer::EndLaunch(const sim::PerfCounters& counters) {
  // 1. Accounting completeness: every checked functional write must be
  //    covered by accounted write traffic on the same allocation. A block's
  //    stores covered by its own accounted writes are covered by the
  //    launch's, so only the launch's own stores and the blocks' residues
  //    (FinishBlock) are left to check.
  for (auto& [base, stored] : functional_writes_) {
    IntervalLog unchecked = std::move(stored.own);
    unchecked.Append(std::move(stored.residue));
    if (unchecked.empty()) continue;
    WriteLogs& accounted_logs = accounted_writes_[base];
    IntervalLog accounted = std::move(accounted_logs.own);
    for (IntervalLog& log : accounted_logs.blocks) {
      accounted.Append(std::move(log));
    }
    unchecked.Normalize();
    accounted.Normalize();
    const uint64_t uncovered = unchecked.UncoveredBy(accounted);
    if (uncovered > tolerance_bytes_) {
      // The message reports every stored byte, the covered ones too.
      IntervalLog all_stored = std::move(unchecked);
      for (IntervalLog& log : stored.blocks) all_stored.Append(std::move(log));
      all_stored.Normalize();
      std::ostringstream msg;
      msg << uncovered << " B of functional writes to allocation at 0x"
          << std::hex << base << std::dec << " (" << all_stored.TotalBytes()
          << " B stored, " << accounted.TotalBytes()
          << " B accounted) have no accounted traffic";
      Report(ViolationCode::kUnaccountedWrite, msg.str());
    }
  }

  // 2. Counter lint.
  if (expect_set_) {
    if (counters.tuples != expected_tuples_) {
      std::ostringstream msg;
      msg << "kernel processed " << counters.tuples << " tuples, expected "
          << expected_tuples_;
      Report(ViolationCode::kCounterInvariant, msg.str());
    }
    uint64_t accounted_bytes = counters.gpu_mem_read + counters.gpu_mem_write +
                               counters.link_read_payload +
                               counters.link_write_payload +
                               counters.cpu_mem_read + counters.cpu_mem_write;
    uint64_t floor = expected_tuples_ * expected_min_width_;
    if (accounted_bytes < floor) {
      std::ostringstream msg;
      msg << "accounted " << accounted_bytes << " B of traffic, below the "
          << floor << " B floor (" << expected_tuples_ << " tuples x "
          << expected_min_width_ << " B)";
      Report(ViolationCode::kCounterInvariant, msg.str());
    }
    // Only linted for kernels that declared expectations: copy-engine
    // transfers legitimately move tuples without charging SM issue slots.
    if (counters.tuples > 0 && counters.issue_slots == 0) {
      Report(ViolationCode::kCounterInvariant,
             "kernel processed tuples but charged zero issue slots");
    }
  }

  functional_writes_.clear();
  accounted_writes_.clear();
  expect_set_ = false;
  in_launch_ = false;
  scope_ = Scope();
}

// --- Parallel block execution ---

std::unique_ptr<DeviceSanitizer> DeviceSanitizer::Fork() const {
  auto child = std::make_unique<DeviceSanitizer>();
  child->parent_ = this;
  child->scope_ = scope_;
  child->in_launch_ = in_launch_;
  child->tolerance_bytes_ = tolerance_bytes_;
  return child;
}

void DeviceSanitizer::FinishBlock() {
  for (auto& [base, stored] : functional_writes_) {
    IntervalLog& accounted = accounted_writes_[base].own;
    // A StoreRun and the flush that accounts it record the same interval
    // on both sides, so a block that accounts every store as it makes it
    // leaves two identical logs and no residue, without a sort.
    if (stored.own.SameEntries(accounted)) continue;
    stored.own.Normalize();
    accounted.Normalize();
    stored.residue = stored.own.Minus(accounted);
  }
}

void DeviceSanitizer::MergeBlock(DeviceSanitizer& child) {
  for (auto& v : child.violations_) violations_.push_back(std::move(v));
  child.violations_.clear();
  // Union is order-independent, so the child's map order cannot change
  // what EndLaunch computes; inserting the stored-to keys in that order
  // keeps the order in which EndLaunch visits (and reports) allocations.
  for (auto& [base, stored] : child.functional_writes_) {
    WriteLogs& logs = functional_writes_[base];
    logs.blocks.push_back(std::move(stored.own));
    logs.residue.Append(std::move(stored.residue));
  }
  for (auto& [base, accounted] : child.accounted_writes_) {
    if (accounted.own.empty()) continue;
    accounted_writes_[base].blocks.push_back(std::move(accounted.own));
  }
  child.functional_writes_.clear();
  child.accounted_writes_.clear();
}

// --- Recording ---

void DeviceSanitizer::RecordAccounted(uint64_t addr, uint64_t size,
                                      bool is_write) {
  if (size == 0) return;
  const LiveMap::value_type* it = FindAllocation(addr);
  if (it == nullptr) {
    std::ostringstream msg;
    msg << "accounted " << (is_write ? "write" : "read") << " of " << size
        << " B at 0x" << std::hex << addr << std::dec
        << " hits no live allocation";
    Report(ViolationCode::kAccountedOutOfBounds, msg.str());
    return;
  }
  const uint64_t end = it->first + it->second.size;
  if (addr + size > end) {
    std::ostringstream msg;
    msg << (is_write ? "flush wrote " : "read overran ") << addr + size - end
        << " B past extent of the " << it->second.size
        << " B allocation at 0x" << std::hex << it->first << std::dec;
    Report(ViolationCode::kAccountedOutOfBounds, msg.str());
    // Clamp so the coverage bookkeeping stays inside the allocation.
    size = end - addr;
  }
  if (is_write && in_launch_) {
    accounted_writes_[it->first].own.Add(addr, addr + size);
  }
}

void DeviceSanitizer::RecordFunctionalWrite(uint64_t addr, uint64_t size) {
  if (size == 0 || !in_launch_) return;
  const LiveMap::value_type* it = FindAllocation(addr);
  if (it == nullptr) return;  // raw CHECK macros guard this path already
  functional_writes_[it->first].own.Add(addr, addr + size);
}

void DeviceSanitizer::ExpectTuples(uint64_t tuples,
                                   uint64_t min_bytes_per_tuple) {
  expect_set_ = true;
  expected_tuples_ = tuples;
  expected_min_width_ = min_bytes_per_tuple;
}

// --- Reporting ---

std::string DeviceSanitizer::ScopePrefix(uint32_t warp) const {
  std::ostringstream out;
  out << "kernel " << scope_.kernel << ", block " << scope_.block << ", warp "
      << warp;
  if (scope_.partition >= 0) out << ", partition " << scope_.partition;
  out << ": ";
  return out.str();
}

void DeviceSanitizer::Report(ViolationCode code, const std::string& detail) {
  ReportAtWarp(code, scope_.warp, detail);
}

void DeviceSanitizer::ReportAtWarp(ViolationCode code, uint32_t warp,
                                   const std::string& detail) {
  Violation v;
  v.code = code;
  v.kernel = scope_.kernel;
  v.block = scope_.block;
  v.warp = warp;
  v.partition = scope_.partition;
  v.message = ScopePrefix(warp) + detail;
  violations_.push_back(std::move(v));
}

std::vector<Violation> DeviceSanitizer::TakeViolations() {
  std::vector<Violation> out;
  out.swap(violations_);
  return out;
}

util::Status DeviceSanitizer::CheckOk() const {
  if (violations_.empty()) return util::Status::OK();
  return violations_.front().ToStatus();
}

// --- ScratchpadShadow ---

ScratchpadShadow::ScratchpadShadow(DeviceSanitizer* san, uint64_t bytes,
                                   uint64_t capacity_bytes)
    : san_(san), bytes_(bytes) {
  if (san_ == nullptr) return;
  if (bytes > capacity_bytes) {
    std::ostringstream msg;
    msg << "scratchpad arena of " << bytes << " B exceeds the "
        << capacity_bytes << " B per-block capacity";
    san_->Report(ViolationCode::kScratchpadOutOfBounds, msg.str());
  }
  const uint64_t words = (bytes + kWordBytes - 1) / kWordBytes;
  last_writer_.assign(words, -1);
  initialized_.assign(words, 0);
}

void ScratchpadShadow::ReportOutOfBounds(uint64_t offset, uint64_t size,
                                         uint32_t warp, const char* what) {
  std::ostringstream msg;
  msg << "scratchpad " << what << " of " << size << " B at offset " << offset
      << " overruns the " << bytes_ << " B arena by "
      << offset + size - bytes_ << " B";
  san_->ReportAtWarp(ViolationCode::kScratchpadOutOfBounds, warp, msg.str());
}

void ScratchpadShadow::ReportRace(uint32_t prev, uint32_t warp,
                                  uint64_t word) {
  std::ostringstream msg;
  msg << "warps " << prev << " and " << warp
      << " wrote scratchpad word at offset " << word * kWordBytes
      << " with no synchronization point in between";
  san_->ReportAtWarp(ViolationCode::kScratchpadRace, warp, msg.str());
}

void ScratchpadShadow::ReportUseBeforeInit(uint32_t warp, uint64_t word) {
  std::ostringstream msg;
  msg << "scratchpad word at offset " << word * kWordBytes
      << " read before any warp initialized it";
  san_->ReportAtWarp(ViolationCode::kScratchpadUseBeforeInit, warp,
                     msg.str());
}

void ScratchpadShadow::SyncRange(uint64_t offset, uint64_t size) {
  if (san_ == nullptr || size == 0) return;
  const uint64_t first = offset / kWordBytes;
  const uint64_t end = std::min<uint64_t>(
      (offset + size - 1) / kWordBytes + 1, last_writer_.size());
  if (first >= end) return;
  // Two fills rather than one interleaved loop: the byte-sized init state
  // may alias the writer array, which keeps a joint loop scalar.
  std::fill(last_writer_.begin() + first, last_writer_.begin() + end, -1);
  std::fill(initialized_.begin() + first, initialized_.begin() + end, 0);
}

void ScratchpadShadow::Barrier() {
  if (san_ == nullptr) return;
  std::fill(last_writer_.begin(), last_writer_.end(), -1);
}

void ScratchpadShadow::AcquireLock(uint32_t lock, uint32_t warp) {
  if (san_ == nullptr) return;
  const int64_t holder = HolderOf(lock);
  if (holder >= 0) {
    // The simulation is sequential: a holder cannot release while another
    // warp spins, so acquiring a held lock is a re-acquire bug or a
    // guaranteed deadlock on real hardware.
    std::ostringstream msg;
    if (holder == warp) {
      msg << "warp re-acquired buffer lock " << lock << " it already holds";
    } else {
      msg << "warp acquired buffer lock " << lock << " still held by warp "
          << holder << " (deadlock on real hardware)";
    }
    san_->ReportAtWarp(ViolationCode::kLockProtocol, warp, msg.str());
    return;
  }
  if (lock >= lock_holder_.size()) lock_holder_.resize(uint64_t{lock} + 1, -1);
  lock_holder_[lock] = warp;
}

void ScratchpadShadow::ReleaseLock(uint32_t lock, uint32_t warp) {
  if (san_ == nullptr) return;
  if (HolderOf(lock) != warp) {
    std::ostringstream msg;
    msg << "warp released buffer lock " << lock << " it does not hold";
    san_->ReportAtWarp(ViolationCode::kLockProtocol, warp, msg.str());
    return;
  }
  lock_holder_[lock] = -1;
}

void ScratchpadShadow::NoteFlush(uint32_t lock, uint32_t warp) {
  if (san_ == nullptr) return;
  const int64_t holder = HolderOf(lock);
  if (holder != warp) {
    std::ostringstream msg;
    msg << "buffer " << lock << " flushed by a warp that does not hold its "
        << "lock (holder: ";
    if (holder < 0) {
      msg << "none";
    } else {
      msg << "warp " << holder;
    }
    msg << ")";
    san_->ReportAtWarp(ViolationCode::kLockProtocol, warp, msg.str());
  }
}

}  // namespace triton::sanitizer
