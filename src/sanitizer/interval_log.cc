#include "sanitizer/interval_log.h"

#include <algorithm>

#include "util/logging.h"

namespace triton::sanitizer {

void IntervalLog::Add(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  if (!log_.empty()) {
    auto& last = log_.back();
    if (begin >= last.first && begin <= last.second) {
      // Overlaps or abuts the last entry. When the log is normalized that
      // entry is the highest, so extending it keeps the log normalized.
      last.second = std::max(last.second, end);
      return;
    }
    if (begin < last.first) normalized_ = false;
  }
  log_.emplace_back(begin, end);
  if (!normalized_ &&
      log_.size() > 2 * std::max(normalized_entries_, kMinCompactEntries)) {
    Normalize();
  }
}

void IntervalLog::Append(IntervalLog&& other) {
  if (log_.empty()) {
    std::swap(log_, other.log_);
    std::swap(normalized_, other.normalized_);
    std::swap(normalized_entries_, other.normalized_entries_);
  } else if (!other.log_.empty()) {
    // The first normalized_entries_ entries stay sorted, so Normalize
    // still sorts only what came after them.
    log_.insert(log_.end(), other.log_.begin(), other.log_.end());
    normalized_ = false;
  }
  other.log_.clear();
  other.normalized_ = true;
  other.normalized_entries_ = 0;
}

void IntervalLog::Normalize() {
  if (!normalized_ && !log_.empty()) {
    // Entries below normalized_entries_ are still sorted from the last
    // compaction (appends only extend the last entry or push new ones), so
    // only the tail needs sorting before one linear merge.
    const auto tail = log_.begin() + static_cast<std::ptrdiff_t>(
                                         normalized_entries_);
    std::sort(tail, log_.end());
    std::inplace_merge(log_.begin(), tail, log_.end());
    size_t out = 0;
    for (size_t i = 1; i < log_.size(); ++i) {
      if (log_[i].first <= log_[out].second) {
        log_[out].second = std::max(log_[out].second, log_[i].second);
      } else {
        log_[++out] = log_[i];
      }
    }
    log_.resize(out + 1);
  }
  normalized_ = true;
  normalized_entries_ = log_.size();
}

template <typename Fn>
void IntervalLog::ForEachUncovered(const IntervalLog& cover, Fn fn) const {
  DCHECK(normalized_ && cover.normalized_);
  const auto& c = cover.log_;
  size_t first = 0;  // first cover interval that may reach the current pos
  for (const auto& [begin, end] : log_) {
    uint64_t pos = begin;
    while (first < c.size() && c[first].second <= pos) ++first;
    for (size_t k = first; pos < end; ++k) {
      if (k == c.size() || c[k].first >= end) {
        fn(pos, end);
        break;
      }
      if (c[k].first > pos) fn(pos, c[k].first);
      pos = std::max(pos, c[k].second);
    }
  }
}

IntervalLog IntervalLog::Minus(const IntervalLog& cover) const {
  // Pieces come out ascending, and two of them are separated by a
  // non-empty cover interval or by a gap of this normalized log, so the
  // result is normalized as built.
  IntervalLog out;
  ForEachUncovered(cover, [&out](uint64_t begin, uint64_t end) {
    out.log_.emplace_back(begin, end);
  });
  out.normalized_entries_ = out.log_.size();
  return out;
}

uint64_t IntervalLog::UncoveredBy(const IntervalLog& cover) const {
  uint64_t uncovered = 0;
  ForEachUncovered(cover, [&uncovered](uint64_t begin, uint64_t end) {
    uncovered += end - begin;
  });
  return uncovered;
}

uint64_t IntervalLog::TotalBytes() const {
  DCHECK(normalized_);
  uint64_t total = 0;
  for (const auto& [begin, end] : log_) total += end - begin;
  return total;
}

}  // namespace triton::sanitizer
