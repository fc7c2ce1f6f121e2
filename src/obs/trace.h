// Chrome trace-event emitter for visual inspection of shard imbalance.
//
// Collects duration ("X"), instant ("i"), and thread-name metadata ("M")
// events and writes the chrome://tracing / Perfetto JSON object format:
// one pid for the process, one tid (track) per shard plus a driver track.
// The emitter is thread-safe -- shard workers record concurrently -- and
// timestamps are microseconds relative to the emitter's construction, so
// a trace of a run starts at t=0 regardless of host epoch.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace cfs::obs {

/// Fail fast on output paths: probe that `path` can be created/appended
/// (without truncating existing content) and throw cfs::Error carrying the
/// OS diagnostic if not.  Emitters open their files lazily -- often only
/// at save time, after a long run -- so CLI front-ends call this up front
/// to reject a bad --trace/--timeline path before burning the simulation.
void ensure_writable(const std::string& path, const std::string& what);

/// Atomically replace `path` with `content`: fully write a sibling temp
/// file, then rename it into place (the same protocol as resil/ snapshot
/// writes).  A crash mid-export leaves either the old file or the new one,
/// never a torn artifact.  Throws cfs::Error ("<what> file ...") on any I/O
/// failure, with the temp file removed.
void atomic_write(const std::string& path, const std::string& content,
                  const std::string& what);

class TraceEmitter {
 public:
  TraceEmitter();

  /// Microseconds elapsed since construction (the trace's time base).
  std::uint64_t now_us() const {
    return us_at(std::chrono::steady_clock::now());
  }
  /// `tp` on the same time base (0 for instants before construction).
  std::uint64_t us_at(std::chrono::steady_clock::time_point tp) const;

  /// Name a track: shown by chrome://tracing instead of the raw tid.
  void name_track(std::uint32_t tid, const std::string& name);

  /// Complete event: `name` ran on track `tid` during [ts_us, ts_us+dur_us].
  void complete(std::uint32_t tid, const std::string& name,
                std::uint64_t ts_us, std::uint64_t dur_us);

  /// Instant event (thread-scoped): a point-in-time marker, e.g. one or
  /// more fault detections.
  void instant(std::uint32_t tid, const std::string& name,
               std::uint64_t ts_us);

  /// Counter event: a named track of stacked series values at `ts_us`
  /// (chrome://tracing renders these as area charts under the thread
  /// tracks).  The timeline sampler emits coverage / live-fault /
  /// live-element series through this.
  void counter(std::uint32_t tid, const std::string& name, std::uint64_t ts_us,
               std::vector<std::pair<std::string, std::uint64_t>> series);

  std::size_t num_events() const;

  /// Serialize the whole trace as a chrome://tracing JSON object.
  void write(std::ostream& os) const;
  /// write() to a file; throws cfs::Error on I/O failure.
  void save(const std::string& path) const;

 private:
  struct Event {
    char ph;  // 'X', 'i', 'M', or 'C'
    std::uint32_t tid;
    std::uint64_t ts;
    std::uint64_t dur;
    std::string name;
    // 'C' only: the counter series (name, value) pairs.
    std::vector<std::pair<std::string, std::uint64_t>> series;
  };

  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

}  // namespace cfs::obs
