#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.h"
#include "util/logging.h"

namespace triton::hostbench {

Recorder::Recorder(bool tracing)
    : epoch_(std::chrono::steady_clock::now()), tracing_(tracing) {}

double Recorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Recorder::Span::Span(Recorder& rec, std::string name, int64_t id)
    : rec_(rec), name_(std::move(name)) {
  if (rec_.tracing_) {
    record_ = static_cast<int64_t>(rec_.spans_.size());
    Record r;
    r.name = name_;
    r.id = id;
    r.parent = rec_.open_.empty() ? -1 : rec_.open_.back();
    rec_.spans_.push_back(std::move(r));
    rec_.open_.push_back(record_);
  }
  // Read the clock last so the bookkeeping above is not timed.
  start_ = rec_.Now();
  if (record_ >= 0) rec_.spans_[record_].start = start_;
}

double Recorder::Span::Stop() {
  if (stopped_) return seconds_;
  const double end = rec_.Now();
  stopped_ = true;
  seconds_ = end - start_;
  rec_.samples_[name_].push_back(seconds_);
  if (record_ >= 0) {
    rec_.spans_[record_].end = end;
    CHECK(!rec_.open_.empty() && rec_.open_.back() == record_)
        << "span " << name_ << " ended out of order";
    rec_.open_.pop_back();
  }
  return seconds_;
}

void Recorder::Span::Arg(const std::string& key, double value) {
  if (record_ >= 0) rec_.spans_[record_].args.emplace_back(key, value);
}

const std::vector<double>& Recorder::Samples(const std::string& name) const {
  static const std::vector<double> kNone;
  auto it = samples_.find(name);
  return it == samples_.end() ? kNone : it->second;
}

std::vector<SelfTime> Recorder::SelfTimes() const {
  // Children of one parent run one after another on the single recording
  // thread, so the part of a span its children cover is the sum of their
  // durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) child_time[r.parent] += r.end - r.start;
  }
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    SelfTime& st = by_name[r.name];
    st.name = r.name;
    ++st.count;
    st.total_seconds += r.end - r.start;
    st.self_seconds += r.end - r.start - child_time[i];
  }
  std::vector<SelfTime> out;
  for (auto& [name, st] : by_name) out.push_back(st);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_seconds > b.self_seconds;
  });
  return out;
}

util::Status Recorder::WriteChromeTrace(const std::string& path) const {
  util::JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const Record& r : spans_) {
    w.BeginObject();
    w.Key("name");
    w.String(r.name);
    // The layer is the name's first component ("core.triton_join" -> core).
    w.Key("cat");
    w.String(r.name.substr(0, r.name.find('.')));
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Double(r.start * 1e6);
    w.Key("dur");
    w.Double((r.end - r.start) * 1e6);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(1);
    w.Key("args");
    w.BeginObject();
    w.Key("id");
    w.Int(r.id);
    w.Key("parent");
    w.String(r.parent >= 0 ? spans_[r.parent].name : "");
    for (const auto& [key, value] : r.args) {
      w.Key(key);
      w.Double(value);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return WriteFile(path, w.str());
}

util::Status WriteFile(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::InvalidArgument("cannot open " + path +
                                         " for writing");
  }
  const bool written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    return util::Status::Internal("short write to " + path);
  }
  return util::Status::OK();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

}  // namespace triton::hostbench
