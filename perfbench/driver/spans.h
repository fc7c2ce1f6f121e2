// In-memory spans for the traced run.
//
// The benchmark records a span around every call it makes into a library
// layer: name, start, end, the span that caused it, and the thread that ran
// it.  Spans go to a per-thread buffer (no locking on the hot path) and are
// written out once, when the benchmark ends.  A layer's self time is its
// span's duration minus the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t name = 0;    ///< interned name (SpanLog::intern)
  std::uint32_t thread = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// Per-layer aggregate over a set of spans.
struct LayerRow {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;  ///< summed durations
  double self_s = 0;   ///< summed self times
};

/// Span store for `num_threads` recording threads.  Thread `t` may only
/// touch buffer `t`; reading (rows, write) happens after they have joined.
class SpanLog {
 public:
  explicit SpanLog(unsigned num_threads);

  /// Intern a span name (call before the threads start recording).
  std::uint32_t intern(const std::string& name);

  /// Open a span on thread `t`; its parent is the innermost span open on
  /// `t`, or `cross_parent` when none is (a worker thread's first span).
  std::uint64_t open(unsigned t, std::uint32_t name,
                     std::uint64_t cross_parent = 0);
  void close(unsigned t, std::uint64_t id);

  /// Per-name self time, summed duration and count over every span in the
  /// subtree of `root` (inclusive).
  std::vector<LayerRow> rows(std::uint64_t root) const;

  /// Per-name durations of every closed span with that name (all roots).
  std::vector<double> durations(const std::string& name) const;

  /// Forget every recorded span (names stay interned).
  void clear();

  /// Write every span as JSON (one object per span) to `path`.
  void write(const std::string& path) const;

 private:
  const Span& find(std::uint64_t id) const;

  struct Buffer {
    std::vector<Span> done;
    std::vector<Span> open;
    std::uint64_t next = 1;
  };
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> index_;
  std::vector<Buffer> bufs_;
};

/// RAII span; a null log records nothing.
class Scoped {
 public:
  Scoped(SpanLog* log, unsigned t, std::uint32_t name,
         std::uint64_t cross_parent = 0)
      : log_(log), t_(t),
        id_(log ? log->open(t, name, cross_parent) : 0) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(t_, id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  unsigned t_;
  std::uint64_t id_;
};

}  // namespace perfbench
