// Span recorder for traced benchmark runs.
//
// Every call the benchmark makes into a library layer is wrapped in a span
// (name, start, end, parent).  Spans are kept in memory and written out
// once, when the run ends, so recording costs two clock reads and a vector
// push per span.  A layer's self time is its span's duration minus the
// durations of its direct children.
//
// Nesting on the calling thread follows a stack of open spans; spans
// recorded from other threads (campaign cells on pool workers) name their
// parent explicitly and go through a mutex.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

struct span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer started
  double end_s = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root

  [[nodiscard]] double duration() const noexcept { return end_s - start_s; }
};

class tracer {
 public:
  tracer() : origin_(clock_type::now()) { spans_.reserve(1 << 16); }

  [[nodiscard]] double now() const noexcept {
    return std::chrono::duration<double>(clock_type::now() - origin_).count();
  }

  /// Opens a span nested in the innermost open span of the calling thread.
  std::int64_t open(const std::string& name) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, t, t, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void close(std::int64_t id) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
    stack_.pop_back();
  }

  /// Records a finished span from any thread.
  void record(const std::string& name, double start_s, double end_s, std::int64_t parent) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start_s, end_s, parent});
  }

  [[nodiscard]] const std::vector<span>& spans() const noexcept { return spans_; }

  /// Durations of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const span& s : spans_) {
      if (s.name == name) out.push_back(s.duration());
    }
    return out;
  }

  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }

  /// Per-name totals: span count, summed duration and summed self time.
  struct summary {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, summary> summarize() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.duration();
    }
    std::map<std::string, summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      summary& entry = out[spans_[i].name];
      ++entry.count;
      entry.total_s += spans_[i].duration();
      entry.self_s += spans_[i].duration() - child[i];
    }
    return out;
  }

 private:
  clock_type::time_point origin_;
  std::mutex mutex_;
  std::vector<span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span on the calling thread; a null tracer makes it a no-op.
class scoped_span {
 public:
  scoped_span(tracer* t, const std::string& name) : tracer_(t) {
    if (tracer_ != nullptr) id_ = tracer_->open(name);
  }
  ~scoped_span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  tracer* tracer_;
  std::int64_t id_ = -1;
};

}  // namespace perfbench
