// Telemetry layer (PR 7): power-of-two histogram bucket math, per-level
// work profiles, the Timeline sample ring (wrap, sampling stride), the
// determinism contract of the sample's deterministic section across the
// --threads grid, JSONL streaming (lazy creation, append, resume
// trim, well-formedness, error diagnostics), and the progress meter's
// rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gen/known_circuits.h"
#include "harness/runner.h"
#include "obs/histogram.h"
#include "obs/json_stats.h"
#include "obs/progress.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "patterns/pattern.h"
#include "util/error.h"

namespace cfs {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// Minimal JSONL well-formedness check: every brace/bracket balances
// outside strings and the line parses as one object.  (tests/test_obs.cpp
// carries a full JSON reader; here structural validity plus field
// extraction below is what the stream contract promises.)
bool balanced_object_line(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

// Extract `"key":<uint>` from a JSONL line (first occurrence).
std::uint64_t extract_u64(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string l;
  while (std::getline(f, l)) lines.push_back(l);
  return lines;
}

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(Histogram, BucketEdges) {
  using H = obs::Histogram;
  // Bucket 0 holds exactly the value 0.
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_lo(0), 0u);
  EXPECT_EQ(H::bucket_hi(0), 0u);
  // Bucket k in [1, 31] holds [2^(k-1), 2^k).
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  for (unsigned b = 1; b + 1 < H::kNumBuckets; ++b) {
    EXPECT_EQ(H::bucket_of(H::bucket_lo(b)), b);
    EXPECT_EQ(H::bucket_of(H::bucket_hi(b)), b);
    EXPECT_EQ(H::bucket_lo(b), (std::uint64_t{1} << (b - 1)));
    EXPECT_EQ(H::bucket_hi(b) + 1, (std::uint64_t{1} << b));
  }
  // The last bucket clamps everything >= 2^31.
  const unsigned last = H::kNumBuckets - 1;
  EXPECT_EQ(last, 32u);
  EXPECT_EQ(H::bucket_of(std::uint64_t{1} << 31), last);
  EXPECT_EQ(H::bucket_of((std::uint64_t{1} << 31) - 1), last - 1);
  EXPECT_EQ(H::bucket_of(std::numeric_limits<std::uint64_t>::max()), last);
  EXPECT_EQ(H::bucket_hi(last), std::numeric_limits<std::uint64_t>::max());
}

TEST(Histogram, RecordMergeReset) {
  obs::Histogram h;
  EXPECT_EQ(h.mean(), 0.0);  // empty histogram: mean well-defined
  h.record(0);
  h.record(1);
  h.record(7);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 8u);
  EXPECT_EQ(h.max, 7u);
  EXPECT_DOUBLE_EQ(h.mean(), 8.0 / 3.0);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[3], 1u);

  obs::Histogram o;
  o.record(std::numeric_limits<std::uint64_t>::max());
  o.record(7);
  h.merge(o);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.max, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.buckets[3], 2u);
  EXPECT_EQ(h.buckets[obs::Histogram::kNumBuckets - 1], 1u);

  h.reset();
  EXPECT_EQ(h, obs::Histogram{});
}

TEST(Histogram, LevelProfileBumpMerge) {
  obs::LevelProfile a;
  a.resize(3);
  a.bump(0, 4, 10);
  a.bump(2, 1, 2);
  a.bump(2, 1, 3);
  EXPECT_EQ(a.evals[0], 4u);
  EXPECT_EQ(a.merges[0], 1u);
  EXPECT_EQ(a.traversals[0], 10u);
  EXPECT_EQ(a.merges[2], 2u);
  EXPECT_EQ(a.traversals[2], 5u);

  // Merge grows to the deeper profile's level count.
  obs::LevelProfile b;
  b.resize(5);
  b.bump(4, 9, 9);
  b.merge(a);
  EXPECT_EQ(b.num_levels(), 5u);
  EXPECT_EQ(b.evals[0], 4u);
  EXPECT_EQ(b.evals[4], 9u);
  a.merge(b);
  EXPECT_EQ(a.num_levels(), 5u);
  EXPECT_EQ(a.merges[2], 4u);
}

// ---------------------------------------------------------------------------
// Timeline ring
// ---------------------------------------------------------------------------

obs::TimelineSample make_sample(std::uint64_t vec, unsigned shards = 1) {
  obs::TimelineSample s;
  s.vec = vec;
  s.hard = vec * 2;
  s.shards.resize(shards);
  return s;
}

TEST(Timeline, RingKeepsNewestAfterWrap) {
  obs::Timeline tl(4);
  tl.set_num_shards(1);
  for (std::uint64_t v = 0; v < 3; ++v) tl.record(make_sample(v));
  ASSERT_EQ(tl.size(), 3u);
  for (std::uint64_t v = 0; v < 3; ++v) EXPECT_EQ(tl.at(v).vec, v);

  for (std::uint64_t v = 3; v < 10; ++v) tl.record(make_sample(v));
  EXPECT_EQ(tl.recorded(), 10u);
  ASSERT_EQ(tl.size(), 4u);  // ring holds the newest `capacity` samples
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tl.at(i).vec, 6u + i);
    EXPECT_EQ(tl.at(i).hard, 2 * (6u + i));
  }
}

TEST(Timeline, SamplingStride) {
  obs::Timeline tl(8, 4);
  EXPECT_EQ(tl.every(), 4u);
  EXPECT_TRUE(tl.want(0));
  EXPECT_FALSE(tl.want(1));
  EXPECT_FALSE(tl.want(3));
  EXPECT_TRUE(tl.want(4));
  obs::Timeline clamped(8, 0);  // every=0 clamps to 1
  EXPECT_EQ(clamped.every(), 1u);
}

TEST(Timeline, ObserverSeesEverySample) {
  obs::Timeline tl(2);
  tl.set_num_shards(1);
  std::vector<std::uint64_t> seen;
  tl.set_observer([&](const obs::TimelineSample& s) { seen.push_back(s.vec); });
  for (std::uint64_t v = 0; v < 5; ++v) tl.record(make_sample(v));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Determinism contract across --threads
// ---------------------------------------------------------------------------

struct DetTuple {
  std::uint64_t vec, hard, potential, dropped, live_faults;
  bool operator==(const DetTuple&) const = default;
};

std::vector<DetTuple> sampled_run(unsigned threads) {
  const Circuit c = make_counter(6);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t(PatternSet::random(c.inputs().size(), 48, 11));
  obs::Timeline tl(64);
  run_csim_sharded(c, u, t, CsimVariant::MV, threads, Val::Zero,
                   /*drop_detected=*/true, /*trace=*/nullptr, &tl);
  EXPECT_EQ(tl.size(), 48u);
  EXPECT_EQ(tl.num_shards(), threads);
  std::vector<DetTuple> out;
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const obs::TimelineSample& s = tl.at(i);
    EXPECT_EQ(s.shards.size(), threads);
    // Shard live-fault weights partition the merged total.
    std::uint64_t sum = 0;
    for (const obs::ShardSample& sh : s.shards) sum += sh.live_faults;
    EXPECT_EQ(sum, s.live_faults);
    out.push_back({s.vec, s.hard, s.potential, s.dropped, s.live_faults});
  }
  return out;
}

// The id predates the removal of the batch axis; the grid is threads only.
TEST(Timeline, DeterministicSectionThreadAndBatchInvariant) {
  const std::vector<DetTuple> ref = sampled_run(1);
  ASSERT_EQ(ref.size(), 48u);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ref[i].vec, i);
  // Detections accumulate monotonically; live = universe - hard.
  for (std::size_t i = 1; i < ref.size(); ++i) {
    EXPECT_GE(ref[i].hard, ref[i - 1].hard);
    EXPECT_EQ(ref[i].hard + ref[i].live_faults,
              ref[0].hard + ref[0].live_faults);
  }
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(sampled_run(threads), ref) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// JSONL streaming
// ---------------------------------------------------------------------------

TEST(Timeline, JsonlStreamWellFormed) {
  const std::string path = tmp_path("tl_stream.jsonl");
  std::remove(path.c_str());

  const Circuit c = make_counter(6);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t(PatternSet::random(c.inputs().size(), 24, 11));
  obs::Timeline tl(8);  // ring smaller than the run: stream gets all samples
  tl.stream_to(path);
  run_csim_sharded(c, u, t, CsimVariant::MV, 2, Val::Zero,
                   /*drop_detected=*/true, /*trace=*/nullptr, &tl);
  tl.flush();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 25u);  // header + one line per vector
  for (const std::string& l : lines) EXPECT_TRUE(balanced_object_line(l)) << l;
  EXPECT_EQ(extract_u64(lines[0], "timeline"), 1u);
  EXPECT_EQ(extract_u64(lines[0], "num_shards"), 2u);
  EXPECT_EQ(extract_u64(lines[0], "every"), 1u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(extract_u64(lines[i], "vec"), i - 1);  // contiguous
  }
  // The ring kept only the tail; the stream kept everything.
  EXPECT_EQ(tl.size(), 8u);
  EXPECT_EQ(tl.recorded(), 24u);
  std::remove(path.c_str());
}

TEST(Timeline, StreamAppendsAcrossFlushes) {
  const std::string path = tmp_path("tl_append.jsonl");
  std::remove(path.c_str());
  obs::Timeline tl(4);
  tl.set_num_shards(1);
  tl.stream_to(path);
  tl.record(make_sample(0));
  tl.flush();
  tl.record(make_sample(1));
  tl.record(make_sample(2));
  tl.flush();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);  // one header, then 0,1,2
  EXPECT_EQ(extract_u64(lines[1], "vec"), 0u);
  EXPECT_EQ(extract_u64(lines[3], "vec"), 2u);
  std::remove(path.c_str());
}

TEST(Timeline, TruncateStreamAtDropsLaterSamplesAndTornTail) {
  const std::string path = tmp_path("tl_truncate.jsonl");
  std::remove(path.c_str());
  {
    obs::Timeline tl(4);
    tl.set_num_shards(1);
    tl.stream_to(path);
    for (std::uint64_t v = 0; v < 8; ++v) tl.record(make_sample(v));
    tl.flush();
  }
  std::ofstream(path, std::ios::app) << "{\"vec\":8,\"ha";  // torn tail

  // A resume at position 5 drops samples 5..7 and the torn line, keeps the
  // header, and the continuation appends its own header and 5..7.
  obs::Timeline tl(4);
  tl.set_num_shards(1);
  tl.stream_to(path);
  tl.truncate_stream_at(5);
  for (std::uint64_t v = 5; v < 8; ++v) tl.record(make_sample(v));
  tl.flush();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 10u);  // header, 0..4, header, 5..7
  std::vector<std::uint64_t> vecs;
  for (const std::string& l : lines) {
    EXPECT_TRUE(balanced_object_line(l)) << l;
    if (l.find("\"timeline\":") == std::string::npos) {
      vecs.push_back(extract_u64(l, "vec"));
    }
  }
  EXPECT_EQ(vecs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));

  // Nothing at or past the position: the stream is left as it is.
  tl.truncate_stream_at(8);
  EXPECT_EQ(read_lines(path), lines);
  std::remove(path.c_str());
}

TEST(Timeline, StreamCreationIsLazy) {
  const std::string path = tmp_path("tl_lazy.jsonl");
  std::remove(path.c_str());
  {
    obs::Timeline tl(4);
    tl.stream_to(path);
    tl.flush();  // nothing buffered: no file may appear
  }
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(Timeline, FlushReportsOsDiagnostic) {
  obs::Timeline tl(4);
  tl.set_num_shards(1);
  const std::string path = "/nonexistent_dir_cfs_test/tl.jsonl";
  tl.stream_to(path);
  tl.record(make_sample(0));
  try {
    tl.flush();
    FAIL() << "expected cfs::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("No such file or directory"), std::string::npos)
        << what;
  }
}

TEST(Trace, EnsureWritableProbesWithoutCreating) {
  const std::string path = tmp_path("probe_only.json");
  std::remove(path.c_str());
  obs::ensure_writable(path, "trace");  // missing but creatable: fine...
  EXPECT_FALSE(std::ifstream(path).good());  // ...and still not created

  EXPECT_THROW(
      obs::ensure_writable("/nonexistent_dir_cfs_test/t.json", "trace"),
      Error);
}

// ---------------------------------------------------------------------------
// Stats-document block and progress rendering
// ---------------------------------------------------------------------------

TEST(Timeline, WriteJsonBlockShape) {
  obs::Timeline tl(4);
  tl.set_num_shards(2);
  obs::TimelineSample s = make_sample(3, 2);
  s.shards[0].live_faults = 30;
  s.shards[1].live_faults = 10;
  tl.record(s);
  std::ostringstream os;
  obs::JsonWriter w(os);
  tl.write_json(w);
  const std::string doc = os.str();
  EXPECT_TRUE(balanced_object_line(doc)) << doc;
  EXPECT_EQ(extract_u64(doc, "capacity"), 4u);
  EXPECT_EQ(extract_u64(doc, "num_shards"), 2u);
  EXPECT_EQ(extract_u64(doc, "recorded"), 1u);
  EXPECT_EQ(extract_u64(doc, "vec"), 3u);
}

TEST(ProgressMeter, RenderReportsCoverageAndImbalance) {
  obs::ProgressMeter meter(4096, /*force_tty=*/0);
  obs::TimelineSample s = make_sample(511, 2);
  s.hard = 1024;
  s.live_faults = 1024;  // universe inferred as 2048 on first update
  s.shards[0].live_faults = 768;
  s.shards[1].live_faults = 256;
  meter.update(s);
  const std::string line = meter.render(s);
  EXPECT_NE(line.find("50.0% cov"), std::string::npos) << line;
  EXPECT_NE(line.find("vec 512/4096"), std::string::npos) << line;
  EXPECT_NE(line.find("hard 1024"), std::string::npos) << line;
  // Heaviest shard holds 768 of 1024 live over 2 shards: 1.50x the share.
  EXPECT_NE(line.find("imb 1.50"), std::string::npos) << line;
  meter.finish();
}

}  // namespace
}  // namespace cfs
