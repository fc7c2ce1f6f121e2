// Observability subsystem: counter registry arithmetic, phase-timer
// accumulation, Chrome-trace and stats-JSON well-formedness (parsed back
// with a minimal JSON reader), and shard-count invariance of the
// deterministic counter block.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "gen/known_circuits.h"
#include "harness/runner.h"
#include "harness/stats_export.h"
#include "obs/counters.h"
#include "obs/json_stats.h"
#include "obs/timers.h"
#include "obs/trace.h"
#include "patterns/pattern.h"
#include "util/stopwatch.h"

namespace cfs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader (tests only): enough to round-trip what we emit.
// ---------------------------------------------------------------------------

struct Json;
using JsonObject = std::map<std::string, Json>;
using JsonArray = std::vector<Json>;

struct Json {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  const JsonObject& obj() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& arr() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  double num() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  const Json& at(const std::string& key) const { return obj().at(key); }
  bool has(const std::string& key) const { return obj().count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  Json parse() {
    Json v = value();
    ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }
  void ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Json value() {
    ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json{string()};
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return Json{nullptr};
    }
    return number();
  }

  void literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) {
      fail("bad literal");
    }
    pos_ += lit.size();
  }

  Json boolean() {
    if (peek() == 't') {
      literal("true");
      return Json{true};
    }
    literal("false");
    return Json{false};
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return Json{std::stod(std::string(s_.substr(start, pos_ - start)))};
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            const unsigned code = static_cast<unsigned>(
                std::stoul(std::string(s_.substr(pos_, 4)), nullptr, 16));
            pos_ += 4;
            // Emitter only escapes control chars -- ASCII is enough here.
            out += static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    ws();
    if (!consume('}')) {
      while (true) {
        ws();
        std::string key = string();
        ws();
        expect(':');
        (*obj)[key] = value();
        ws();
        if (consume('}')) break;
        expect(',');
      }
    }
    return Json{obj};
  }

  Json array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    ws();
    if (!consume(']')) {
      while (true) {
        arr->push_back(value());
        ws();
        if (consume(']')) break;
        expect(',');
      }
    }
    return Json{arr};
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

Json parse_json(const std::string& text) { return JsonParser(text).parse(); }

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

TEST(Counters, BumpMergeResetTotal) {
  obs::Counters a;
  EXPECT_EQ(a.total(), 0u);
  a.bump(obs::Counter::ElementsTraversed);
  a.bump(obs::Counter::ElementsTraversed, 9);
  a.bump(obs::Counter::DetectionsHard, 3);
  EXPECT_EQ(a.get(obs::Counter::ElementsTraversed), 10u);
  EXPECT_EQ(a.get(obs::Counter::DetectionsHard), 3u);
  EXPECT_EQ(a.total(), 13u);

  obs::Counters b;
  b.bump(obs::Counter::ElementsTraversed, 5);
  b.bump(obs::Counter::FaultsDropped, 2);
  b.merge(a);
  EXPECT_EQ(b.get(obs::Counter::ElementsTraversed), 15u);
  EXPECT_EQ(b.get(obs::Counter::DetectionsHard), 3u);
  EXPECT_EQ(b.get(obs::Counter::FaultsDropped), 2u);
  EXPECT_EQ(b.total(), 20u);

  b.reset();
  EXPECT_EQ(b.total(), 0u);
  EXPECT_EQ(b, obs::Counters{});
}

TEST(Counters, NamesAreUniqueAndNonEmpty) {
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto name =
        std::string(obs::counter_name(static_cast<obs::Counter>(i)));
    EXPECT_FALSE(name.empty()) << "counter " << i;
    ++seen[name];
  }
  for (const auto& [name, n] : seen) EXPECT_EQ(n, 1) << name;
}

TEST(Counters, ShardInvariantSubset) {
  // Exactly the fault-level counters are shard-invariant: one increment
  // per fault-status transition, each fault owned by exactly one shard.
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    const bool expect_invariant = c == obs::Counter::DetectionsHard ||
                                  c == obs::Counter::DetectionsPotential ||
                                  c == obs::Counter::FaultsDropped;
    EXPECT_EQ(obs::counter_shard_invariant(c), expect_invariant)
        << obs::counter_name(c);
  }
}

// ---------------------------------------------------------------------------
// Phase timers + Stopwatch::lap
// ---------------------------------------------------------------------------

TEST(PhaseTimers, AccumulationIsMonotonic) {
  obs::PhaseTimers t;
  std::uint64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    {
      obs::ScopedPhase sp(t, obs::Phase::GoodEval);
      volatile int sink = 0;
      for (int j = 0; j < 100; ++j) sink = sink + j;
    }
    const std::uint64_t now = t.nanos(obs::Phase::GoodEval);
    EXPECT_GE(now, prev) << "iteration " << i;
    prev = now;
    EXPECT_EQ(t.count(obs::Phase::GoodEval),
              static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(t.total_phase_nanos(), t.nanos(obs::Phase::GoodEval));
  EXPECT_DOUBLE_EQ(t.seconds(obs::Phase::GoodEval),
                   static_cast<double>(prev) * 1e-9);
}

TEST(PhaseTimers, MergeAndMinus) {
  obs::PhaseTimers a;
  a.add(obs::Phase::FaultProp, 100);
  a.add(obs::Phase::Clocking, 40);
  obs::PhaseTimers b;
  b.add(obs::Phase::FaultProp, 7);
  b.merge(a);
  EXPECT_EQ(b.nanos(obs::Phase::FaultProp), 107u);
  EXPECT_EQ(b.count(obs::Phase::FaultProp), 2u);
  EXPECT_EQ(b.nanos(obs::Phase::Clocking), 40u);

  const obs::PhaseTimers delta = b.minus(a);
  EXPECT_EQ(delta.nanos(obs::Phase::FaultProp), 7u);
  EXPECT_EQ(delta.count(obs::Phase::FaultProp), 1u);
  EXPECT_EQ(delta.nanos(obs::Phase::Clocking), 0u);

  b.reset();
  EXPECT_EQ(b, obs::PhaseTimers{});
}

TEST(PhaseTimers, PhaseNamesAreUnique) {
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
    ++seen[std::string(obs::phase_name(static_cast<obs::Phase>(i)))];
  }
  EXPECT_EQ(seen.size(), obs::kNumPhases);
}

TEST(Stopwatch, LapResetsTheOrigin) {
  Stopwatch sw;
  volatile int sink = 0;
  for (int j = 0; j < 10000; ++j) sink = sink + j;
  const double lap1 = sw.lap();
  EXPECT_GE(lap1, 0.0);
  // After lap() the origin restarts: an immediate reading cannot include
  // the work burned before the lap.
  const double after = sw.seconds();
  EXPECT_GE(after, 0.0);
  const double lap2 = sw.lap();
  EXPECT_GE(lap2, after);
  EXPECT_GE(sw.seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// Chrome trace emitter
// ---------------------------------------------------------------------------

TEST(TraceEmitter, OutputIsValidChromeTraceJson) {
  obs::TraceEmitter tr;
  tr.name_track(0, "shard 0");
  tr.name_track(1, "driver \"quoted\"\n");
  tr.complete(0, "vector", 10, 25);
  tr.instant(0, "detect x3", 35);
  tr.complete(1, "merge", 40, 2);
  EXPECT_EQ(tr.num_events(), 5u);

  std::ostringstream os;
  tr.write(os);
  const Json doc = parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const JsonArray& ev = doc.at("traceEvents").arr();
  ASSERT_EQ(ev.size(), 5u);

  std::size_t meta = 0, complete = 0, instant = 0;
  for (const Json& e : ev) {
    ASSERT_TRUE(e.is_object());
    EXPECT_EQ(e.at("pid").num(), 1.0);
    const std::string& ph = e.at("ph").str();
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.at("name").str(), "thread_name");
      EXPECT_TRUE(e.at("args").is_object());
    } else if (ph == "X") {
      ++complete;
      EXPECT_TRUE(e.has("ts"));
      EXPECT_TRUE(e.has("dur"));
    } else if (ph == "i") {
      ++instant;
      EXPECT_EQ(e.at("s").str(), "t");
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(meta, 2u);
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instant, 1u);

  // The escaped track name survives the round trip.
  bool found = false;
  for (const Json& e : ev) {
    if (e.at("ph").str() == "M" &&
        e.at("args").at("name").str() == "driver \"quoted\"\n") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceEmitter, NowIsMonotonic) {
  obs::TraceEmitter tr;
  std::uint64_t prev = tr.now_us();
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t now = tr.now_us();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriter, EscapingAndNesting) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    w.begin_object();
    w.field("s", std::string_view("a\"b\\c\nd\x01"));
    w.field("i", std::uint64_t{18446744073709551615ull});
    w.field("neg", std::int64_t{-5});
    w.field("d", 1.5);
    w.field("nan", std::nan(""));
    w.field("t", true);
    w.key("arr");
    w.begin_array();
    w.value(std::uint64_t{1});
    w.begin_object();
    w.field("k", std::uint64_t{2});
    w.end_object();
    w.end_array();
    w.end_object();
  }
  const Json doc = parse_json(os.str());
  EXPECT_EQ(doc.at("s").str(), "a\"b\\c\nd\x01");
  EXPECT_EQ(doc.at("i").num(), 18446744073709551615.0);
  EXPECT_EQ(doc.at("neg").num(), -5.0);
  EXPECT_EQ(doc.at("d").num(), 1.5);
  EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(doc.at("nan").v));
  EXPECT_EQ(std::get<bool>(doc.at("t").v), true);
  ASSERT_TRUE(doc.at("arr").is_array());
  EXPECT_EQ(doc.at("arr").arr().at(0).num(), 1.0);
  EXPECT_EQ(doc.at("arr").arr().at(1).at("k").num(), 2.0);
}

// ---------------------------------------------------------------------------
// Stats-JSON round trip + shard invariance
// ---------------------------------------------------------------------------

RunResult run_counter(unsigned threads) {
  const Circuit c = make_counter(6);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t(PatternSet::random(c.inputs().size(), 48, 11));
  return run_csim_sharded(c, u, t, CsimVariant::MV, threads, Val::Zero);
}

TEST(StatsJson, RoundTripMatchesRun) {
  const RunResult r = run_counter(2);
  RunMetadata meta;
  meta.circuit = "counter6";
  meta.engine = "csim-mv";
  meta.threads = 2;
  meta.seed = 11;
  meta.vectors = 48;
  meta.sequences = 1;
  meta.ff_init = "0";

  std::ostringstream os;
  write_run_stats_json(os, meta, r);
  const Json doc = parse_json(os.str());

  EXPECT_EQ(doc.at("schema_version").num(), 3.0);
  EXPECT_EQ(doc.at("meta").at("circuit").str(), "counter6");
  EXPECT_EQ(doc.at("meta").at("threads").num(), 2.0);
  EXPECT_EQ(doc.at("meta").at("ff_init").str(), "0");
  EXPECT_EQ(doc.at("coverage").at("hard").num(),
            static_cast<double>(r.cov.hard));
  EXPECT_EQ(doc.at("coverage").at("total").num(),
            static_cast<double>(r.cov.total));
  // Doubles are emitted at %.9g: compare to relative precision.
  EXPECT_NEAR(doc.at("cpu_s").num(), r.cpu_s, 1e-8 * (1.0 + r.cpu_s));
  ASSERT_TRUE(doc.at("engines").is_array());
  ASSERT_EQ(doc.at("engines").arr().size(), r.stats.per_engine.size());

  // Per-engine counters sum to the totals block, field by field.
  const JsonObject& tot = doc.at("totals").at("counters").obj();
  for (const auto& [name, val] : tot) {
    double sum = 0;
    for (const Json& e : doc.at("engines").arr()) {
      sum += e.at("counters").at(name).num();
    }
    EXPECT_EQ(sum, val.num()) << name;
  }

  // The deterministic block repeats the shard-invariant counters.
  const JsonObject& det = doc.at("deterministic").obj();
  for (const auto& [name, val] : det) {
    EXPECT_EQ(val.num(), tot.at(name).num()) << name;
  }

#if CFS_OBS_ENABLED
  EXPECT_EQ(det.at("detections_hard").num(),
            static_cast<double>(r.cov.hard));
  EXPECT_EQ(doc.at("totals").at("vectors_simulated").num(),
            static_cast<double>(48 * r.stats.per_engine.size()));
#endif
}

TEST(StatsJson, DeterministicCountersShardInvariant) {
  const RunResult r1 = run_counter(1);
  const RunResult r2 = run_counter(2);
  const RunResult r4 = run_counter(4);
  // Coverage is bit-identical by the sharding contract...
  EXPECT_EQ(r1.cov.hard, r2.cov.hard);
  EXPECT_EQ(r1.cov.hard, r4.cov.hard);
  // ...and so is every shard-invariant counter sum.
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto c = static_cast<obs::Counter>(i);
    if (!obs::counter_shard_invariant(c)) continue;
    EXPECT_EQ(r1.stats.total.counters.get(c), r2.stats.total.counters.get(c))
        << obs::counter_name(c);
    EXPECT_EQ(r1.stats.total.counters.get(c), r4.stats.total.counters.get(c))
        << obs::counter_name(c);
  }
#if CFS_OBS_ENABLED
  EXPECT_EQ(r1.stats.total.counters.get(obs::Counter::DetectionsHard),
            static_cast<std::uint64_t>(r1.cov.hard));
  // The engines really were instrumented: traversal work is nonzero.
  EXPECT_GT(r1.stats.total.counters.get(obs::Counter::ElementsTraversed), 0u);
  EXPECT_GT(r1.stats.total.counters.get(obs::Counter::ElementsAllocated), 0u);
#endif
}

TEST(StatsJson, HarnessTimersMatchReportedCpu) {
  const RunResult r = run_counter(2);
  // cpu_s is defined as the Run phase of the harness envelope, so the
  // table column and the telemetry export can never disagree.
  EXPECT_DOUBLE_EQ(r.cpu_s, r.run_timers.seconds(obs::Phase::Run));
  EXPECT_EQ(r.run_timers.count(obs::Phase::Run), 1u);
}

}  // namespace
}  // namespace cfs
