// The cfsd service core, in-process: model cache hit/miss accounting,
// admission control (budget refusal, backpressure, deadline shedding) as
// structured errors that never kill the service, bounded update rings for
// slow watchers, cancel -> halted -> resume bit-identity, and full crash
// recovery -- a Service destroyed mid-campaign and rebuilt on the same
// state directory resumes and finishes with the digest of an uninterrupted
// run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>

#include "faults/fault.h"
#include "gen/iscas_profiles.h"
#include "netlist/bench_parser.h"
#include "netlist/bench_writer.h"
#include "patterns/pattern.h"
#include "resil/campaign.h"
#include "resil/containment.h"
#include "svc/service.h"
#include "svc/wire.h"
#include "util/error.h"

namespace cfs {
namespace {

using svc::JsonValue;
using svc::Service;
using svc::ServiceConfig;
using svc::json_escape;
using svc::json_parse;

/// A guaranteed-fresh state directory: TempDir() persists across test
/// binary invocations, and a stale session dir would trigger crash
/// recovery inside a test that expects a pristine service.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::string bench_text(const char* profile) {
  return write_bench(make_benchmark(profile));
}

std::string suite_text(std::size_t inputs, std::size_t n1 = 40,
                       std::size_t n2 = 24) {
  TestSuite t;
  t.sequences().push_back(PatternSet::random(inputs, n1, 11));
  t.sequences().push_back(PatternSet::random(inputs, n2, 12));
  return t.to_text();
}

/// The digest an uninterrupted, in-process campaign produces for the same
/// (circuit text, suite text) pair the service runs -- the bit-identity
/// reference for every resume/recovery test below.
std::uint64_t direct_digest(const std::string& circuit,
                            const std::string& tests) {
  const Circuit c = parse_bench(circuit, "ref");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = TestSuite::parse(tests);
  resil::CampaignOptions opt;
  opt.sharded.csim.split_lists = true;  // the service always splits
  resil::CampaignRunner runner(c, u, t, opt);
  return runner.run().digest();
}

std::string open_request(const std::string& session,
                         const std::string& circuit,
                         const std::string& tests,
                         const std::string& extra = "") {
  return "{\"op\":\"open\",\"session\":\"" + session + "\",\"circuit\":\"" +
         json_escape(circuit) + "\",\"tests\":\"" + json_escape(tests) +
         "\"" + extra + "}";
}

JsonValue call(Service& s, const std::string& payload) {
  return json_parse(s.handle(payload));
}

std::string error_code(const JsonValue& r) {
  return r.find("ok")->as_bool() ? "" : r.req_string("error");
}

/// Poll status until the session leaves queued/running (or patience runs
/// out -- 20 s, far past any campaign here).
JsonValue wait_terminal(Service& s, const std::string& name) {
  JsonValue r;
  for (int i = 0; i < 4000; ++i) {
    r = call(s, "{\"op\":\"status\",\"session\":\"" + name + "\"}");
    const std::string st = r.req_string("state");
    if (st != "queued" && st != "running") return r;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return r;
}

ServiceConfig base_config(const std::string& dir) {
  ServiceConfig cfg;
  cfg.state_dir = dir;
  cfg.checkpoint_every = 4;
  cfg.sample_every = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// Happy path + model cache
// ---------------------------------------------------------------------------

TEST(SvcSessions, RunsToDoneAndDigestMatchesDirectCampaign) {
  const std::string circuit = bench_text("s27");
  const std::string tests = suite_text(4);
  Service s(base_config(fresh_dir("svc_done")));

  const JsonValue opened = call(s, open_request("one", circuit, tests));
  ASSERT_TRUE(opened.find("ok")->as_bool()) << s.handle("{\"op\":\"stats\"}");

  const JsonValue done = wait_terminal(s, "one");
  ASSERT_EQ(done.req_string("state"), "done");
  EXPECT_GT(done.req_u64("vectors"), 0u);
  EXPECT_GT(done.req_u64("hard"), 0u);
  EXPECT_GT(done.req_u64("total"), 0u);

  char ref[32];
  std::snprintf(ref, sizeof ref, "%016llx",
                static_cast<unsigned long long>(direct_digest(circuit, tests)));
  EXPECT_EQ(done.req_string("digest"), ref);

  // Watching from the beginning yields sequenced updates ending terminal.
  const JsonValue w = call(
      s, "{\"op\":\"watch\",\"session\":\"one\",\"after\":0,\"wait_ms\":10}");
  ASSERT_TRUE(w.find("ok")->as_bool());
  EXPECT_EQ(w.req_string("state"), "done");
  EXPECT_FALSE(w.find("updates")->as_array().empty());
}

TEST(SvcSessions, ModelCacheServesRepeatCircuitsWithoutReparsing) {
  const std::string circuit = bench_text("s27");
  const std::string tests = suite_text(4);
  Service s(base_config(fresh_dir("svc_cache")));

  ASSERT_TRUE(
      call(s, open_request("a", circuit, tests)).find("ok")->as_bool());
  ASSERT_EQ(wait_terminal(s, "a").req_string("state"), "done");
  ASSERT_TRUE(
      call(s, open_request("b", circuit, tests)).find("ok")->as_bool());
  ASSERT_EQ(wait_terminal(s, "b").req_string("state"), "done");

  const JsonValue stats = call(s, "{\"op\":\"stats\"}");
  const JsonValue* svc = stats.find("svc");
  EXPECT_EQ(svc->req_u64("model_cache_misses"), 1u);
  EXPECT_GE(svc->req_u64("model_cache_hits"), 1u);
  EXPECT_EQ(svc->req_u64("completed"), 2u);
  EXPECT_EQ(svc->req_u64("elements_admitted"), 0u);  // budget released
}

// ---------------------------------------------------------------------------
// Admission control: every refusal is structured, the service survives all
// ---------------------------------------------------------------------------

TEST(SvcAdmission, OverBudgetSessionRefusedStructurallyAndServiceSurvives) {
  const std::string circuit = bench_text("s27");
  const std::string tests = suite_text(4, 10, 6);
  ServiceConfig cfg = base_config(fresh_dir("svc_admit"));
  cfg.global_elements = 1000;
  Service s(cfg);

  const JsonValue refused = call(
      s, open_request("giant", circuit, tests, ",\"elements\":4000"));
  EXPECT_EQ(error_code(refused), "admission_refused");

  // The refusal is bookkept, nothing leaked, and a session that fits the
  // budget still runs to completion afterwards.
  const JsonValue stats = call(s, "{\"op\":\"stats\"}");
  EXPECT_EQ(stats.find("svc")->req_u64("admission_refused"), 1u);
  EXPECT_EQ(stats.find("svc")->req_u64("sessions"), 0u);
  ASSERT_TRUE(
      call(s, open_request("fits", circuit, tests, ",\"elements\":800"))
          .find("ok")
          ->as_bool());
  EXPECT_EQ(wait_terminal(s, "fits").req_string("state"), "done");
}

TEST(SvcAdmission, FullQueueRefusesWithBackpressure) {
  ServiceConfig cfg = base_config(fresh_dir("svc_bp"));
  cfg.queue_depth = 0;  // every fresh open finds the queue "full"
  Service s(cfg);
  const JsonValue r =
      call(s, open_request("bp", bench_text("s27"), suite_text(4, 6, 4)));
  EXPECT_EQ(error_code(r), "backpressure");
  EXPECT_EQ(call(s, "{\"op\":\"stats\"}")
                .find("svc")
                ->req_u64("backpressure_rejected"),
            1u);
  EXPECT_TRUE(call(s, "{\"op\":\"hello\"}").find("ok")->as_bool());
}

TEST(SvcAdmission, QueuedPastDeadlineIsShedWhileAdmittedWorkContinues) {
  const std::string circuit = bench_text("s27");
  const std::string tests = suite_text(4);
  ServiceConfig cfg = base_config(fresh_dir("svc_shed"));
  cfg.max_sessions = 1;
  // Pin the only slot: the first session's shard stalls 700 ms at vector 0.
  resil::FaultInjector injector;
  for (const auto& spec : resil::FaultInjector::parse("stall:0:0:700:1")) {
    injector.add(spec);
  }
  cfg.injector = &injector;
  Service s(cfg);

  ASSERT_TRUE(
      call(s, open_request("slow", circuit, tests)).find("ok")->as_bool());
  // The slot is taken for ~700 ms; a 40 ms waiter must be shed.
  const JsonValue shed = call(
      s, open_request("impatient", circuit, tests, ",\"wait_ms\":40"));
  EXPECT_EQ(error_code(shed), "deadline_exceeded");
  EXPECT_EQ(call(s, "{\"op\":\"stats\"}").find("svc")->req_u64(
                "deadline_shed"),
            1u);

  // The pinned session still finishes, and the shed client's retry (the
  // stall spec is spent) now runs immediately.
  EXPECT_EQ(wait_terminal(s, "slow").req_string("state"), "done");
  ASSERT_TRUE(
      call(s, open_request("impatient", circuit, tests)).find("ok")->as_bool());
  EXPECT_EQ(wait_terminal(s, "impatient").req_string("state"), "done");
}

TEST(SvcAdmission, AttachWithDifferentSpecIsAMismatch) {
  const std::string circuit = bench_text("s27");
  const std::string tests = suite_text(4, 10, 6);
  Service s(base_config(fresh_dir("svc_mismatch")));
  ASSERT_TRUE(
      call(s, open_request("x", circuit, tests)).find("ok")->as_bool());
  ASSERT_EQ(wait_terminal(s, "x").req_string("state"), "done");

  const JsonValue r =
      call(s, open_request("x", circuit, suite_text(4, 11, 6)));
  EXPECT_EQ(error_code(r), "spec_mismatch");
  // Attaching with the SAME spec is fine and returns the finished result.
  const JsonValue again = call(s, open_request("x", circuit, tests));
  ASSERT_TRUE(again.find("ok")->as_bool());
  EXPECT_EQ(again.req_string("state"), "done");
}

// ---------------------------------------------------------------------------
// Bounded update ring
// ---------------------------------------------------------------------------

TEST(SvcUpdates, SlowWatcherSkipsAheadInsteadOfBlockingTheCampaign) {
  ServiceConfig cfg = base_config(fresh_dir("svc_ring"));
  cfg.update_ring = 2;  // tiny ring, sampling every vector
  Service s(cfg);
  const std::string circuit = bench_text("s27");
  const std::string tests = suite_text(4);  // 64 vectors >> 2 ring slots
  ASSERT_TRUE(
      call(s, open_request("ring", circuit, tests)).find("ok")->as_bool());
  ASSERT_EQ(wait_terminal(s, "ring").req_string("state"), "done");

  const JsonValue w = call(
      s, "{\"op\":\"watch\",\"session\":\"ring\",\"after\":0,\"wait_ms\":10}");
  ASSERT_TRUE(w.find("ok")->as_bool());
  EXPECT_GT(w.req_u64("skipped"), 0u);
  EXPECT_LE(w.find("updates")->as_array().size(), 2u);
  EXPECT_GT(
      call(s, "{\"op\":\"stats\"}").find("svc")->req_u64("updates_shed"), 0u);
}

// ---------------------------------------------------------------------------
// Cancel -> halted -> resume, and crash recovery
// ---------------------------------------------------------------------------

TEST(SvcLifecycle, CancelHaltsResumablyAndResumeKeepsTheDigest) {
  const std::string circuit = bench_text("s298");
  const std::string tests = suite_text(3);
  ServiceConfig cfg = base_config(fresh_dir("svc_cancel"));
  // A 400 ms stall at vector 2 guarantees the cancel lands mid-campaign.
  resil::FaultInjector injector;
  for (const auto& spec : resil::FaultInjector::parse("stall:0:2:400:1")) {
    injector.add(spec);
  }
  cfg.injector = &injector;
  Service s(cfg);

  ASSERT_TRUE(
      call(s, open_request("c", circuit, tests)).find("ok")->as_bool());
  ASSERT_TRUE(call(s, "{\"op\":\"cancel\",\"session\":\"c\"}")
                  .find("ok")
                  ->as_bool());
  const JsonValue halted = wait_terminal(s, "c");
  ASSERT_EQ(halted.req_string("state"), "halted");
  EXPECT_LT(halted.req_u64("vectors"), 64u);  // genuinely interrupted

  // Re-opening the same spec re-admits and resumes from the checkpoint.
  const JsonValue reopened = call(s, open_request("c", circuit, tests));
  ASSERT_TRUE(reopened.find("ok")->as_bool());
  const JsonValue done = wait_terminal(s, "c");
  ASSERT_EQ(done.req_string("state"), "done");
  EXPECT_TRUE(done.find("resumed")->as_bool());

  char ref[32];
  std::snprintf(ref, sizeof ref, "%016llx",
                static_cast<unsigned long long>(direct_digest(circuit, tests)));
  EXPECT_EQ(done.req_string("digest"), ref);

  const JsonValue stats = call(s, "{\"op\":\"stats\"}");
  EXPECT_GE(stats.find("svc")->req_u64("halted"), 1u);
  EXPECT_GE(stats.find("svc")->req_u64("attached"), 1u);
}

TEST(SvcLifecycle, ServiceRestartRecoversHaltedSessionBitIdentically) {
  const std::string dir = fresh_dir("svc_restart");
  const std::string circuit = bench_text("s298");
  const std::string tests = suite_text(3);

  // First incarnation: admit, interrupt mid-campaign, shut down.  The
  // session directory (manifest + spec + checkpoint) stays behind.
  {
    ServiceConfig cfg = base_config(dir);
    resil::FaultInjector injector;
    for (const auto& spec : resil::FaultInjector::parse("stall:0:2:400:1")) {
      injector.add(spec);
    }
    cfg.injector = &injector;
    Service first(cfg);
    ASSERT_TRUE(
        call(first, open_request("r", circuit, tests)).find("ok")->as_bool());
    ASSERT_TRUE(call(first, "{\"op\":\"cancel\",\"session\":\"r\"}")
                    .find("ok")
                    ->as_bool());
    ASSERT_EQ(wait_terminal(first, "r").req_string("state"), "halted");
  }

  // Second incarnation on the same state dir: recovery re-admits the
  // session without any client involvement and finishes it.
  {
    Service second(base_config(dir));
    const JsonValue done = wait_terminal(second, "r");
    ASSERT_EQ(done.req_string("state"), "done");
    EXPECT_TRUE(done.find("resumed")->as_bool());
    char ref[32];
    std::snprintf(
        ref, sizeof ref, "%016llx",
        static_cast<unsigned long long>(direct_digest(circuit, tests)));
    EXPECT_EQ(done.req_string("digest"), ref);
    EXPECT_EQ(call(second, "{\"op\":\"stats\"}").find("svc")->req_u64(
                  "resumed"),
              1u);
  }

  // Third incarnation: the finished result is served from result.json --
  // nothing re-runs, the digest is still queryable.
  {
    Service third(base_config(dir));
    const JsonValue done =
        call(third, "{\"op\":\"status\",\"session\":\"r\"}");
    ASSERT_EQ(done.req_string("state"), "done");
    char ref[32];
    std::snprintf(
        ref, sizeof ref, "%016llx",
        static_cast<unsigned long long>(direct_digest(circuit, tests)));
    EXPECT_EQ(done.req_string("digest"), ref);
    EXPECT_EQ(
        call(third, "{\"op\":\"stats\"}").find("svc")->req_u64("resumed"),
        0u);
  }
}

TEST(SvcLifecycle, ShutdownDrainsThenRefusesNewWorkStructurally) {
  const std::string circuit = bench_text("s27");
  const std::string tests = suite_text(4, 10, 6);
  Service s(base_config(fresh_dir("svc_drain")));
  ASSERT_TRUE(
      call(s, open_request("d", circuit, tests)).find("ok")->as_bool());
  ASSERT_TRUE(
      call(s, "{\"op\":\"shutdown\"}").find("ok")->as_bool());
  EXPECT_TRUE(s.draining());

  // Status and stats still answer; open and cancel refuse with `draining`.
  EXPECT_TRUE(call(s, "{\"op\":\"status\",\"session\":\"d\"}")
                  .find("ok")
                  ->as_bool());
  EXPECT_EQ(error_code(call(s, open_request("late", circuit, tests))),
            "draining");
  EXPECT_EQ(error_code(call(s, "{\"op\":\"cancel\",\"session\":\"d\"}")),
            "draining");
}

// ---------------------------------------------------------------------------
// Concurrent sessions stay isolated
// ---------------------------------------------------------------------------

TEST(SvcIsolation, InterleavedSessionsKeepIndependentResults) {
  const std::string c27 = bench_text("s27");
  const std::string t27 = suite_text(4);
  const std::string c298 = bench_text("s298");
  const std::string t298 = suite_text(3);
  ServiceConfig cfg = base_config(fresh_dir("svc_iso"));
  cfg.max_sessions = 4;
  Service s(cfg);

  ASSERT_TRUE(call(s, open_request("alpha", c27, t27, ",\"threads\":2"))
                  .find("ok")
                  ->as_bool());
  // beta still sends the retired "batch" key: open ignores it like any
  // other unknown key.
  ASSERT_TRUE(call(s, open_request("beta", c298, t298, ",\"batch\":8"))
                  .find("ok")
                  ->as_bool());
  const JsonValue da = wait_terminal(s, "alpha");
  const JsonValue db = wait_terminal(s, "beta");
  ASSERT_EQ(da.req_string("state"), "done");
  ASSERT_EQ(db.req_string("state"), "done");

  // Interleave status reads: each response carries its own session's
  // identity and digest, never the other's.
  for (int i = 0; i < 10; ++i) {
    const JsonValue ra =
        call(s, "{\"op\":\"status\",\"session\":\"alpha\"}");
    const JsonValue rb = call(s, "{\"op\":\"status\",\"session\":\"beta\"}");
    EXPECT_EQ(ra.req_string("session"), "alpha");
    EXPECT_EQ(rb.req_string("session"), "beta");
    EXPECT_EQ(ra.req_string("digest"), da.req_string("digest"));
    EXPECT_EQ(rb.req_string("digest"), db.req_string("digest"));
  }
  EXPECT_NE(da.req_string("digest"), db.req_string("digest"));

  // Neither the thread knob nor the ignored "batch" key changes results:
  // alpha's digest equals the single-threaded direct reference, beta's
  // likewise (the threads invariant carried through the service layer).
  char ref[32];
  std::snprintf(ref, sizeof ref, "%016llx",
                static_cast<unsigned long long>(direct_digest(c27, t27)));
  EXPECT_EQ(da.req_string("digest"), ref);
  std::snprintf(ref, sizeof ref, "%016llx",
                static_cast<unsigned long long>(direct_digest(c298, t298)));
  EXPECT_EQ(db.req_string("digest"), ref);
}

}  // namespace
}  // namespace cfs
