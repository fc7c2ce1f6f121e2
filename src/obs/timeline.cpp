#include "obs/timeline.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "obs/json_stats.h"
#include "obs/trace.h"
#include "util/error.h"

namespace cfs::obs {

Timeline::Timeline(std::size_t capacity, std::uint64_t every)
    : every_(every == 0 ? 1 : every),
      ring_(capacity == 0 ? 1 : capacity),
      t0_(std::chrono::steady_clock::now()) {
  set_num_shards(1);
}

void Timeline::set_num_shards(unsigned k) {
  if (k == 0) k = 1;
  num_shards_ = k;
  for (TimelineSample& s : ring_) s.shards.resize(k);
}

std::uint64_t Timeline::us_at(
    std::chrono::steady_clock::time_point tp) const {
  if (tp < t0_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(tp - t0_).count());
}

void Timeline::record(const TimelineSample& s) {
  TimelineSample& slot = ring_[recorded_ % ring_.size()];
  slot.vec = s.vec;
  slot.hard = s.hard;
  slot.potential = s.potential;
  slot.dropped = s.dropped;
  slot.live_faults = s.live_faults;
  slot.live_elements = s.live_elements;
  slot.traversals = s.traversals;
  slot.gates = s.gates;
  slot.rebalances = s.rebalances;
  slot.t_us = s.t_us;
  slot.latency_us = s.latency_us;
  // Slot shard vectors were sized by set_num_shards(); element-wise copy
  // keeps the hot path allocation-free.
  const std::size_t k =
      s.shards.size() < slot.shards.size() ? s.shards.size()
                                           : slot.shards.size();
  for (std::size_t i = 0; i < k; ++i) slot.shards[i] = s.shards[i];
  ++recorded_;
  if (streaming()) append_stream_line(s);
  if (observer_) observer_(s);
}

std::size_t Timeline::size() const {
  return recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                  : ring_.size();
}

const TimelineSample& Timeline::at(std::size_t i) const {
  if (recorded_ <= ring_.size()) return ring_[i];
  return ring_[(recorded_ + i) % ring_.size()];
}

void Timeline::stream_to(const std::string& path) {
  stream_path_ = path;
  header_pending_ = true;
}

void Timeline::append_stream_line(const TimelineSample& s) {
  std::ostringstream line;
  if (header_pending_) {
    // One header object per stream-open; a resumed campaign appends a new
    // header, so consumers treat lines with a "timeline" key as markers.
    JsonWriter h(line);
    h.begin_object();
    h.field("timeline", std::uint64_t{1});
    h.field("num_shards", num_shards_);
    h.field("every", every_);
    h.end_object();
    line << '\n';
    header_pending_ = false;
  }
  JsonWriter w(line);
  write_sample_json(w, s);
  line << '\n';
  stream_buffer_ += line.str();
}

void Timeline::flush() {
  if (stream_path_.empty() || stream_buffer_.empty()) return;
  // First flush with no file on disk: create it atomically (tmp+rename)
  // so a kill during the very first write never leaves a torn stream.
  if (!stream_opened_ && !std::ifstream(stream_path_).good()) {
    atomic_write(stream_path_, stream_buffer_, "timeline stream");
    stream_opened_ = true;
    stream_buffer_.clear();
    return;
  }
  // Later flushes (and a campaign resume continuing an existing stream)
  // append whole lines in place; JSONL consumers tolerate a torn tail
  // line, and checkpoint-aligned flushing keeps the stream duplicate-free.
  std::ofstream f(stream_path_, std::ios::app);
  if (!f) {
    throw Error("cannot write timeline stream " + stream_path_ + ": " +
                std::strerror(errno));
  }
  f << stream_buffer_;
  f.flush();
  if (!f) {
    throw Error("error writing timeline stream " + stream_path_ + ": " +
                std::strerror(errno));
  }
  stream_opened_ = true;
  stream_buffer_.clear();
}

void Timeline::truncate_stream_at(std::uint64_t vec) {
  if (stream_path_.empty()) return;
  std::ifstream in(stream_path_, std::ios::binary);
  if (!in) return;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // Sample lines open with their suite position (write_sample_json emits
  // "vec" first); header lines do not and are kept.
  constexpr std::string_view kVec = "{\"vec\":";
  std::string kept;
  std::size_t pos = 0;
  for (std::size_t nl; (nl = text.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    const std::string_view line(text.data() + pos, nl - pos);
    if (line.starts_with(kVec)) {
      std::uint64_t v = 0;
      std::from_chars(line.data() + kVec.size(), line.data() + line.size(),
                      v);
      if (v >= vec) continue;
    }
    kept.append(line);
    kept += '\n';
  }
  if (kept.size() != text.size()) {
    atomic_write(stream_path_, kept, "timeline stream");
  }
}

void Timeline::write_sample_json(JsonWriter& w, const TimelineSample& s) {
  w.begin_object();
  w.field("vec", s.vec);
  w.field("hard", s.hard);
  w.field("potential", s.potential);
  w.field("dropped", s.dropped);
  w.field("live_faults", s.live_faults);
  w.field("live_elements", s.live_elements);
  w.field("traversals", s.traversals);
  w.field("gates", s.gates);
  w.field("rebalances", s.rebalances);
  w.field("t_us", s.t_us);
  w.field("latency_us", s.latency_us);
  w.key("shards");
  w.begin_array();
  for (const ShardSample& sh : s.shards) {
    w.begin_object();
    w.field("live_faults", sh.live_faults);
    w.field("live_elements", sh.live_elements);
    w.field("latency_us", sh.latency_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void Timeline::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("every", every_);
  w.field("capacity", static_cast<std::uint64_t>(ring_.size()));
  w.field("num_shards", num_shards_);
  w.field("recorded", recorded_);
  w.key("samples");
  w.begin_array();
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) write_sample_json(w, at(i));
  w.end_array();
  w.end_object();
}

}  // namespace cfs::obs
