// Resilience subsystem: checkpoint/resume bit-identity across engine
// variants, shard counts, and the transition model; shard failure
// containment under injected exceptions and stalls; memory-budget
// multi-pass degradation; the timeline stream's trim on resume;
// snapshot file integrity (CRC, version, shape).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/concurrent_sim.h"
#include "faults/macro_map.h"
#include "gen/iscas_profiles.h"
#include "netlist/macro_extract.h"
#include "obs/timeline.h"
#include "patterns/pattern.h"
#include "patterns/tgen.h"
#include "resil/campaign.h"
#include "resil/containment.h"
#include "resil/crc32.h"
#include "resil/snapshot.h"
#include "sim/sharded_sim.h"
#include "util/error.h"
#include "util/pool.h"

namespace cfs {
namespace {

using resil::CampaignCheckpoint;
using resil::CampaignOptions;
using resil::CampaignResult;
using resil::CampaignRunner;
using resil::FaultInjector;
using resil::InjectedShardFailure;
using resil::InjectionSpec;
using resil::SnapshotError;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// Two sequences so mid-sequence and sequence-boundary resumes both occur.
TestSuite make_suite(std::size_t inputs, std::size_t n1 = 40,
                     std::size_t n2 = 24) {
  TestSuite t;
  t.sequences().push_back(PatternSet::random(inputs, n1, 11));
  t.sequences().push_back(PatternSet::random(inputs, n2, 12));
  return t;
}

// ---------------------------------------------------------------------------
// CRC32 / pool budget / injector primitives
// ---------------------------------------------------------------------------

TEST(Crc32, KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(resil::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(resil::crc32(s, 0), 0u);
}

TEST(PoolBudget, AllocThrowsAtBudget) {
  Pool<std::uint64_t> pool;
  pool.set_budget(3);
  (void)pool.alloc();
  (void)pool.alloc();
  const std::uint32_t last = pool.alloc();
  EXPECT_THROW((void)pool.alloc(), PoolBudgetError);
  // Freeing makes room again; the budget bounds *live* objects.
  pool.free(last);
  EXPECT_NO_THROW((void)pool.alloc());
  EXPECT_LE(pool.peak_live(), 3u);
}

TEST(FaultInjectorTest, ParsesSpecGrammar) {
  const auto specs =
      FaultInjector::parse("throw:1:3,stall:0:2:400,throw:2:5:2");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].action, InjectionSpec::Action::Throw);
  EXPECT_EQ(specs[0].shard, 1u);
  EXPECT_EQ(specs[0].vector, 3u);
  EXPECT_EQ(specs[0].times, 1u);
  EXPECT_EQ(specs[1].action, InjectionSpec::Action::Stall);
  EXPECT_EQ(specs[1].stall_ms, 400u);
  EXPECT_EQ(specs[2].times, 2u);
  EXPECT_THROW(FaultInjector::parse("explode:1:2"), Error);
  EXPECT_THROW(FaultInjector::parse("throw:1"), Error);
  EXPECT_THROW(FaultInjector::parse("throw:a:2"), Error);
  EXPECT_THROW(FaultInjector::parse("stall:1:2"), Error);
}

TEST(FaultInjectorTest, FiresBoundedTimes) {
  FaultInjector inj;
  inj.add(InjectionSpec{InjectionSpec::Action::Throw, 1, 5, 0, 1});
  inj.maybe_fire(0, 5);  // wrong shard
  inj.maybe_fire(1, 4);  // wrong vector
  EXPECT_EQ(inj.fired(), 0u);
  EXPECT_THROW(inj.maybe_fire(1, 5), InjectedShardFailure);
  EXPECT_NO_THROW(inj.maybe_fire(1, 5));  // spent
  EXPECT_EQ(inj.fired(), 1u);
}

// ---------------------------------------------------------------------------
// Snapshot file format
// ---------------------------------------------------------------------------

CampaignCheckpoint small_checkpoint() {
  CampaignCheckpoint ck;
  ck.suite_fp = 0xDEADBEEFCAFEF00Dull;
  ck.num_gates = 7;
  ck.num_dffs = 2;
  ck.num_pis = 3;
  ck.num_faults = 4;
  ck.transition_mode = 1;
  ck.pass = 2;
  ck.seq_index = 1;
  ck.vec_index = 5;
  ck.suite_pos = 45;
  ck.detections_hard = 2;
  ck.detections_potential = 1;
  ck.faults_dropped = 2;
  ck.status = {Detect::Hard, Detect::None, Detect::Potential, Detect::None};
  ck.detected_at = {3, resil::kNotDetected, resil::kNotDetected,
                    resil::kNotDetected};
  ck.done = {1, 0, 0, 0};
  ck.suspended = {0, 0, 1, 1};
  ck.run.flop_good = {Val::One, Val::X};
  ck.run.flop_faulty = {{{1, GateState{}}}, {}};
  ck.run.prev_pins = {Val::Zero, Val::One, Val::X, Val::X};
  return ck;
}

TEST(Snapshot, RoundTripPreservesEveryField) {
  const std::string path = tmp_path("ck_roundtrip.bin");
  const CampaignCheckpoint a = small_checkpoint();
  resil::save_checkpoint(path, a);
  const CampaignCheckpoint b = resil::load_checkpoint(path);
  EXPECT_EQ(b.suite_fp, a.suite_fp);
  EXPECT_EQ(b.num_gates, a.num_gates);
  EXPECT_EQ(b.num_dffs, a.num_dffs);
  EXPECT_EQ(b.num_pis, a.num_pis);
  EXPECT_EQ(b.num_faults, a.num_faults);
  EXPECT_EQ(b.transition_mode, a.transition_mode);
  EXPECT_EQ(b.pass, a.pass);
  EXPECT_EQ(b.seq_index, a.seq_index);
  EXPECT_EQ(b.vec_index, a.vec_index);
  EXPECT_EQ(b.suite_pos, a.suite_pos);
  EXPECT_EQ(b.detections_hard, a.detections_hard);
  EXPECT_EQ(b.detections_potential, a.detections_potential);
  EXPECT_EQ(b.faults_dropped, a.faults_dropped);
  EXPECT_EQ(b.status, a.status);
  EXPECT_EQ(b.detected_at, a.detected_at);
  EXPECT_EQ(b.done, a.done);
  EXPECT_EQ(b.suspended, a.suspended);
  EXPECT_EQ(b.run, a.run);
  std::remove(path.c_str());
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Snapshot, DetectsCorruptionTruncationAndBadHeader) {
  const std::string path = tmp_path("ck_corrupt.bin");
  resil::save_checkpoint(path, small_checkpoint());
  const std::vector<char> good = slurp(path);
  ASSERT_GT(good.size(), 20u);

  // Flip one payload byte: CRC mismatch.
  std::vector<char> bad = good;
  bad[good.size() - 3] ^= 0x40;
  spit(path, bad);
  EXPECT_THROW(resil::load_checkpoint(path), SnapshotError);

  // Truncate mid-payload.
  bad = good;
  bad.resize(good.size() / 2);
  spit(path, bad);
  EXPECT_THROW(resil::load_checkpoint(path), SnapshotError);

  // Wrong magic.
  bad = good;
  bad[0] ^= 0x01;
  spit(path, bad);
  EXPECT_THROW(resil::load_checkpoint(path), SnapshotError);

  // Unknown version (byte 4 is the version field's low byte).
  bad = good;
  bad[4] = 99;
  spit(path, bad);
  EXPECT_THROW(resil::load_checkpoint(path), SnapshotError);

  // Trailing garbage.
  bad = good;
  bad.push_back('x');
  spit(path, bad);
  EXPECT_THROW(resil::load_checkpoint(path), SnapshotError);

  EXPECT_THROW(resil::load_checkpoint(tmp_path("ck_missing.bin")),
               SnapshotError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Engine capture/restore
// ---------------------------------------------------------------------------

// Stopping an engine at a vector boundary, restoring from the snapshot, and
// replaying the tail must reproduce the uninterrupted run exactly.
TEST(EngineRestore, ContinuationIsBitIdentical) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 5);

  ConcurrentSim ref(c, u);
  ref.reset(Val::X);
  for (std::size_t i = 0; i < p.size(); ++i) ref.apply_vector(p[i]);

  ConcurrentSim sim(c, u);
  sim.reset(Val::X);
  for (std::size_t i = 0; i < 20; ++i) sim.apply_vector(p[i]);
  const RunStateSnapshot snap = sim.capture_run_state();
  const std::vector<Detect> snap_status = sim.status();

  // Scramble past the snapshot, then roll back.
  for (std::size_t i = 20; i < 30; ++i) sim.apply_vector(p[i]);
  sim.restore_run_state(snap, snap_status);
  for (std::size_t i = 20; i < p.size(); ++i) sim.apply_vector(p[i]);

  EXPECT_EQ(sim.status(), ref.status());
}

TEST(EngineRestore, TransitionModeContinuationIsBitIdentical) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 48, 6);

  ConcurrentSim ref(c, u);
  ref.reset(Val::Zero);
  for (std::size_t i = 0; i < p.size(); ++i) ref.apply_vector(p[i]);

  ConcurrentSim sim(c, u);
  sim.reset(Val::Zero);
  for (std::size_t i = 0; i < 17; ++i) sim.apply_vector(p[i]);
  const RunStateSnapshot snap = sim.capture_run_state();
  const std::vector<Detect> snap_status = sim.status();
  sim.restore_run_state(snap, snap_status);
  for (std::size_t i = 17; i < p.size(); ++i) sim.apply_vector(p[i]);

  EXPECT_EQ(sim.status(), ref.status());
}

// A merged ShardedSim snapshot is shard-count-agnostic: capture on one
// shard count, restore on another, identical tail.
TEST(EngineRestore, SnapshotMovesAcrossShardCounts) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 40, 7);

  ShardedOptions one;
  one.num_threads = 1;
  ShardedSim ref(c, u, one);
  ref.reset(Val::X);
  for (std::size_t i = 0; i < p.size(); ++i) ref.apply_vector(p[i]);

  ShardedSim first(c, u, one);
  first.reset(Val::X);
  for (std::size_t i = 0; i < 15; ++i) first.apply_vector(p[i]);
  const RunStateSnapshot snap = first.capture_run_state();
  const std::vector<Detect> st = first.status();

  ShardedOptions four;
  four.num_threads = 4;
  ShardedSim second(c, u, four);
  second.restore_run_state(snap, st);
  for (std::size_t i = 15; i < p.size(); ++i) second.apply_vector(p[i]);

  EXPECT_EQ(second.status(), ref.status());
}

// ---------------------------------------------------------------------------
// Campaign checkpoint/resume
// ---------------------------------------------------------------------------

enum class Variant { Plain, V, M, MV };

CampaignOptions variant_options(Variant v, unsigned threads) {
  CampaignOptions opt;
  opt.sharded.num_threads = threads;
  opt.sharded.csim.split_lists = v == Variant::V || v == Variant::MV;
  return opt;
}

// Run a campaign for variant `v`; macro variants extract macros like the
// harness does.
CampaignResult run_campaign(const Circuit& c, const FaultUniverse& u,
                            const TestSuite& t, Variant v,
                            CampaignOptions opt) {
  if (v == Variant::M || v == Variant::MV) {
    MacroExtraction ext = extract_macros(c);
    MacroFaultMap mmap = map_faults_to_macros(c, ext, u);
    CampaignRunner runner(ext.circuit, u, t, std::move(opt), &mmap);
    return runner.run();
  }
  CampaignRunner runner(c, u, t, std::move(opt));
  return runner.run();
}

// The campaign's sequence starts must match the plain engine path (one
// reset() per sequence) exactly.  A tgen-trimmed suite is the sharpest
// probe: it detects some faults solely through flip-flop site divergences
// present in the *initial* state, which a synthetic empty-snapshot restore
// silently skips (regression: the campaign reported 145/706 hard on a
// generated s298 suite where the serial ground truth says 147/706).
TEST(CampaignEquivalence, MatchesPlainEnginePathOnGeneratedTests) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TgenOptions topt;
  topt.ff_init = Val::Zero;
  topt.max_vectors = 48;
  const TestSuite t = generate_tests(c, u, topt).suite;
  ASSERT_FALSE(t.empty());

  ShardedSim ref(c, u, ShardedOptions{});
  ref.run(t, Val::Zero);

  for (const Variant v :
       {Variant::Plain, Variant::V, Variant::M, Variant::MV}) {
    CampaignOptions opt = variant_options(v, 1);
    opt.ff_init = Val::Zero;
    const CampaignResult r = run_campaign(c, u, t, v, opt);
    EXPECT_EQ(r.status, ref.status()) << "variant " << static_cast<int>(v);
  }
}

class CheckpointResume
    : public ::testing::TestWithParam<std::tuple<Variant, unsigned>> {};

TEST_P(CheckpointResume, HaltAndResumeMatchesUninterrupted) {
  const auto [variant, threads] = GetParam();
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size());

  const CampaignResult full =
      run_campaign(c, u, t, variant, variant_options(variant, threads));
  ASSERT_EQ(full.vectors, t.total_vectors());

  // Halt mid-sequence (vector 17 of 40+24) and at the first sequence
  // boundary (vector 40): both cursor shapes must resume bit-identically.
  for (const std::uint64_t halt : {std::uint64_t{17}, std::uint64_t{40}}) {
    const std::string path = tmp_path(
        "ck_resume_" + std::to_string(static_cast<int>(variant)) + "_" +
        std::to_string(threads) + "_" + std::to_string(halt) + ".bin");

    CampaignOptions first = variant_options(variant, threads);
    first.checkpoint_path = path;
    first.halt_after = halt;
    const CampaignResult head = run_campaign(c, u, t, variant, first);
    EXPECT_TRUE(head.halted);
    EXPECT_EQ(head.vectors, halt);
    EXPECT_GE(head.checkpoints_written, 1u);

    CampaignOptions second = variant_options(variant, threads);
    second.resume_path = path;
    const CampaignResult tail = run_campaign(c, u, t, variant, second);
    EXPECT_FALSE(tail.halted);
    EXPECT_EQ(tail.vectors, t.total_vectors() - halt);

    EXPECT_EQ(tail.digest(), full.digest()) << "halt=" << halt;
    EXPECT_EQ(tail.status, full.status);
    EXPECT_EQ(tail.detected_at, full.detected_at);
    EXPECT_EQ(tail.detections_hard, full.detections_hard);
    EXPECT_EQ(tail.detections_potential, full.detections_potential);
    EXPECT_EQ(tail.faults_dropped, full.faults_dropped);
    EXPECT_EQ(tail.coverage.hard, full.coverage.hard);
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsByShards, CheckpointResume,
    ::testing::Combine(::testing::Values(Variant::Plain, Variant::V,
                                         Variant::M, Variant::MV),
                       ::testing::Values(1u, 2u, 4u)));

TEST(CheckpointResumeTransition, HaltAndResumeMatchesUninterrupted) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const TestSuite t = make_suite(c.inputs().size());
  for (const unsigned threads : {1u, 2u}) {
    CampaignOptions base = variant_options(Variant::V, threads);
    base.ff_init = Val::Zero;
    const CampaignResult full = run_campaign(c, u, t, Variant::V, base);

    const std::string path =
        tmp_path("ck_tr_" + std::to_string(threads) + ".bin");
    CampaignOptions first = base;
    first.checkpoint_path = path;
    first.halt_after = 23;
    const CampaignResult head = run_campaign(c, u, t, Variant::V, first);
    ASSERT_TRUE(head.halted);

    CampaignOptions second = base;
    second.resume_path = path;
    const CampaignResult tail = run_campaign(c, u, t, Variant::V, second);
    EXPECT_EQ(tail.digest(), full.digest()) << threads << " threads";
    EXPECT_EQ(tail.status, full.status);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, PeriodicCheckpointsAreWritten) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 20, 12);
  const std::string path = tmp_path("ck_periodic.bin");

  CampaignOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 8;
  CampaignRunner runner(c, u, t, opt);
  const CampaignResult r = runner.run();
  // 32 vectors / every 8 = 4 periodic + 1 final.
  EXPECT_EQ(r.checkpoints_written, 5u);

  // The final checkpoint resumes to an immediately-complete campaign.
  CampaignOptions res;
  res.resume_path = path;
  CampaignRunner runner2(c, u, t, res);
  const CampaignResult done = runner2.run();
  EXPECT_EQ(done.vectors, 0u);
  EXPECT_EQ(done.digest(), r.digest());
  std::remove(path.c_str());
}

// The campaign flushes its timeline stream just before each checkpoint
// write, so a kill between the two leaves the stream one interval past the
// checkpoint on disk.  Resuming from the older checkpoint must trim those
// samples: every vector is then sampled exactly once.
TEST(CheckpointResume, TimelineStreamTrimmedToCheckpointOnResume) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 20, 12);
  const std::string ck = tmp_path("ck_tl_trim.bin");
  const std::string ck_old = tmp_path("ck_tl_trim_old.bin");
  const std::string tl_path = tmp_path("tl_trim.jsonl");
  std::remove(tl_path.c_str());

  const auto leg = [&](const std::string& resume, std::uint64_t halt) {
    obs::Timeline tl(4);
    tl.stream_to(tl_path);
    CampaignOptions opt;
    opt.timeline = &tl;
    opt.resume_path = resume;
    opt.checkpoint_path = ck;
    opt.halt_after = halt;
    CampaignRunner runner(c, u, t, opt);
    return runner.run();
  };
  ASSERT_TRUE(leg("", 10).halted);
  std::filesystem::copy_file(ck, ck_old,
                             std::filesystem::copy_options::overwrite_existing);
  ASSERT_TRUE(leg(ck, 20).halted);  // stream now holds 0..19
  // Resume from vector 10, as if the checkpoint at 20 never reached disk.
  const CampaignResult tail = leg(ck_old, 0);
  EXPECT_FALSE(tail.halted);
  EXPECT_EQ(tail.vectors, t.total_vectors() - 10);

  std::vector<std::uint64_t> vecs;
  std::ifstream in(tl_path);
  for (std::string line; std::getline(in, line);) {
    const std::string key = "{\"vec\":";
    if (line.rfind(key, 0) == 0) {
      vecs.push_back(std::stoull(line.substr(key.size())));
    }
  }
  std::vector<std::uint64_t> want(t.total_vectors());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
  EXPECT_EQ(vecs, want);
  std::remove(ck.c_str());
  std::remove(ck_old.c_str());
  std::remove(tl_path.c_str());
}

TEST(CheckpointResume, RejectsMismatchedSuiteAndCircuit) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 10, 6);
  const std::string path = tmp_path("ck_mismatch.bin");

  CampaignOptions opt;
  opt.checkpoint_path = path;
  opt.halt_after = 4;
  CampaignRunner runner(c, u, t, opt);
  (void)runner.run();

  // Different suite, same circuit.
  const TestSuite other = make_suite(c.inputs().size(), 11, 6);
  CampaignOptions res;
  res.resume_path = path;
  CampaignRunner bad_suite(c, u, other, res);
  EXPECT_THROW((void)bad_suite.run(), SnapshotError);

  // Different circuit entirely.
  const Circuit c2 = make_benchmark("s298");
  const FaultUniverse u2 = FaultUniverse::all_stuck_at(c2);
  const TestSuite t2 = make_suite(c2.inputs().size(), 10, 6);
  CampaignRunner bad_circuit(c2, u2, t2, res);
  EXPECT_THROW((void)bad_circuit.run(), SnapshotError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Shard failure containment
// ---------------------------------------------------------------------------

TEST(Containment, InjectedThrowIsRetriedAndResultUnchanged) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size());

  const CampaignResult clean =
      run_campaign(c, u, t, Variant::MV, variant_options(Variant::MV, 2));

  FaultInjector inj;
  inj.add(InjectionSpec{InjectionSpec::Action::Throw, 1, 5, 0, 1});
  inj.add(InjectionSpec{InjectionSpec::Action::Throw, 0, 9, 0, 2});
  CampaignOptions opt = variant_options(Variant::MV, 2);
  opt.sharded.resil.max_retries = 3;
  opt.sharded.resil.injector = &inj;
  const CampaignResult r = run_campaign(c, u, t, Variant::MV, opt);

  EXPECT_EQ(inj.fired(), 3u);
  EXPECT_GE(r.shard_retries, 3u);
  EXPECT_EQ(r.shard_requeues, 0u);
  EXPECT_EQ(r.digest(), clean.digest());
  EXPECT_EQ(r.status, clean.status);
  EXPECT_EQ(r.detected_at, clean.detected_at);
}

TEST(Containment, RepeatedFailurePastRetryBudgetPropagates) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 12, 0);

  FaultInjector inj;
  inj.add(InjectionSpec{InjectionSpec::Action::Throw, 0, 3, 0, 100});
  CampaignOptions opt = variant_options(Variant::V, 2);
  opt.sharded.resil.max_retries = 2;
  opt.sharded.resil.injector = &inj;
  CampaignRunner runner(c, u, t, opt);
  EXPECT_THROW((void)runner.run(), InjectedShardFailure);
}

TEST(Containment, WithoutRetriesInjectedFailurePropagates) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 12, 0);

  FaultInjector inj;
  inj.add(InjectionSpec{InjectionSpec::Action::Throw, 0, 3, 0, 1});
  CampaignOptions opt = variant_options(Variant::V, 2);
  opt.sharded.resil.injector = &inj;  // max_retries stays 0: fast path
  CampaignRunner runner(c, u, t, opt);
  EXPECT_THROW((void)runner.run(), InjectedShardFailure);
}

TEST(Containment, StalledShardIsRequeuedAndResultUnchanged) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 24, 0);

  const CampaignResult clean =
      run_campaign(c, u, t, Variant::V, variant_options(Variant::V, 2));

  FaultInjector inj;
  inj.add(InjectionSpec{InjectionSpec::Action::Stall, 1, 6, 2000, 1});
  CampaignOptions opt = variant_options(Variant::V, 2);
  opt.sharded.resil.max_retries = 3;
  opt.sharded.resil.deadline_ms = 100;
  opt.sharded.resil.injector = &inj;
  const CampaignResult r = run_campaign(c, u, t, Variant::V, opt);

  EXPECT_GE(r.shard_requeues, 1u);
  EXPECT_GE(r.shard_retries, 1u);
  EXPECT_EQ(r.digest(), clean.digest());
  EXPECT_EQ(r.status, clean.status);
}

// ---------------------------------------------------------------------------
// Memory-budget multi-pass degradation
// ---------------------------------------------------------------------------

TEST(MemoryBudget, MultiPassMatchesUnlimitedRun) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size());

  const CampaignResult unlimited =
      run_campaign(c, u, t, Variant::V, variant_options(Variant::V, 1));
  ASSERT_EQ(unlimited.passes, 1u);
  const std::size_t natural_peak = unlimited.peak_elements;

  for (const unsigned threads : {1u, 2u}) {
    CampaignOptions opt = variant_options(Variant::V, threads);
    opt.sharded.csim.max_elements = natural_peak / 3;
    const CampaignResult r = run_campaign(c, u, t, Variant::V, opt);

    EXPECT_GT(r.passes, 1u) << threads << " threads";
    // detected_at stamps suite positions, so the digest is budget- and
    // pass-invariant, not just the detected set.
    EXPECT_EQ(r.digest(), unlimited.digest()) << threads << " threads";
    EXPECT_EQ(r.status, unlimited.status);
    EXPECT_EQ(r.detections_hard, unlimited.detections_hard);
    EXPECT_EQ(r.detections_potential, unlimited.detections_potential);
    // Budget holds: each shard's pool carries one sentinel beyond its
    // share of the element budget.
    EXPECT_LE(r.peak_elements, opt.sharded.csim.max_elements + threads)
        << threads << " threads";
  }
}

TEST(MemoryBudget, CheckpointResumeWorksMidMultiPass) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size());
  const std::string path = tmp_path("ck_budget.bin");

  CampaignOptions base = variant_options(Variant::V, 1);
  base.sharded.csim.max_elements = 700;
  const CampaignResult full = run_campaign(c, u, t, Variant::V, base);
  ASSERT_GT(full.passes, 1u);

  CampaignOptions first = base;
  first.checkpoint_path = path;
  first.halt_after = t.total_vectors() + 10;  // halts inside pass 2
  const CampaignResult head = run_campaign(c, u, t, Variant::V, first);
  ASSERT_TRUE(head.halted);

  CampaignOptions second = base;
  second.resume_path = path;
  const CampaignResult tail = run_campaign(c, u, t, Variant::V, second);
  EXPECT_EQ(tail.digest(), full.digest());
  EXPECT_EQ(tail.status, full.status);
  EXPECT_EQ(tail.passes, full.passes);
  std::remove(path.c_str());
}

// Halving the budget until the campaign refuses walks it through every
// degradation regime -- including budgets the *sequence-start reset*
// overflows, a recovery path the mid-vector tests never hit (regression:
// reset() inherited the pending events of the settle the overflow
// aborted, tripping the level-queue drain assertion).
TEST(MemoryBudget, BudgetLadderDownToRefusalKeepsTheDigest) {
  const Circuit c = make_benchmark("s298");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size());

  const CampaignResult unlimited =
      run_campaign(c, u, t, Variant::V, variant_options(Variant::V, 1));

  unsigned completed = 0;
  for (std::size_t budget = unlimited.peak_elements / 2; budget >= 2;
       budget /= 2) {
    CampaignOptions opt = variant_options(Variant::V, 1);
    opt.sharded.csim.max_elements = budget;
    try {
      const CampaignResult r = run_campaign(c, u, t, Variant::V, opt);
      EXPECT_EQ(r.digest(), unlimited.digest()) << "budget " << budget;
      EXPECT_EQ(r.status, unlimited.status) << "budget " << budget;
      ++completed;
    } catch (const Error&) {
      break;  // unusably small is a clean refusal, never a crash
    }
  }
  EXPECT_GE(completed, 2u);
}

TEST(MemoryBudget, UnusablySmallBudgetThrows) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 8, 0);

  CampaignOptions opt;
  opt.sharded.csim.max_elements = 1;
  CampaignRunner runner(c, u, t, opt);
  EXPECT_THROW((void)runner.run(), Error);
}

// ---------------------------------------------------------------------------
// Checkpoint-write I/O faults: bounded retry/backoff vs. exhaustion
// ---------------------------------------------------------------------------

/// RAII guard: arms the process-wide snapshot injector, always disarms.
struct SnapshotInjectorGuard {
  explicit SnapshotInjectorGuard(FaultInjector& inj) {
    resil::set_snapshot_injector(&inj);
  }
  ~SnapshotInjectorGuard() { resil::set_snapshot_injector(nullptr); }
};

TEST(FaultInjectorTest, ParsesIoFaultGrammar) {
  const auto specs =
      FaultInjector::parse("short-write:3,enospc:0:2,rename-fail:1:5");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].action, InjectionSpec::Action::ShortWrite);
  EXPECT_EQ(specs[0].vector, 3u);
  EXPECT_EQ(specs[0].times, 1u);
  EXPECT_EQ(specs[1].action, InjectionSpec::Action::Enospc);
  EXPECT_EQ(specs[1].vector, 0u);
  EXPECT_EQ(specs[1].times, 2u);
  EXPECT_EQ(specs[2].action, InjectionSpec::Action::RenameFail);
  EXPECT_EQ(specs[2].times, 5u);
  EXPECT_TRUE(InjectionSpec::is_io(specs[0].action));
  EXPECT_FALSE(InjectionSpec::is_io(InjectionSpec::Action::Throw));
  EXPECT_THROW(FaultInjector::parse("enospc"), Error);
  EXPECT_THROW(FaultInjector::parse("enospc:1:2:3"), Error);
  EXPECT_THROW(FaultInjector::parse("short-write:x"), Error);
}

TEST(FaultInjectorTest, IoSpecsCountSaveAttemptsNotShardVectors) {
  FaultInjector inj;
  for (const InjectionSpec& s : FaultInjector::parse("enospc:1:2")) {
    inj.add(s);
  }
  // Shard-side checks never consume I/O specs.
  EXPECT_NO_THROW(inj.maybe_fire(0, 1));
  EXPECT_EQ(inj.maybe_fail_save(), resil::IoFail::None);    // attempt 0
  EXPECT_EQ(inj.maybe_fail_save(), resil::IoFail::Enospc);  // attempt 1
  EXPECT_EQ(inj.maybe_fail_save(), resil::IoFail::Enospc);  // attempt 2
  EXPECT_EQ(inj.maybe_fail_save(), resil::IoFail::None);    // budget spent
}

TEST(CheckpointIoFaults, SaveFailuresSurfaceAsCheckpointIoError) {
  const std::string path = tmp_path("ck_iofault.bin");
  const CampaignCheckpoint ck = small_checkpoint();
  for (const char* spec : {"short-write:0", "enospc:0", "rename-fail:0"}) {
    FaultInjector inj;
    for (const InjectionSpec& s : FaultInjector::parse(spec)) inj.add(s);
    SnapshotInjectorGuard guard(inj);
    EXPECT_THROW(resil::save_checkpoint(path, ck),
                 resil::CheckpointIoError)
        << spec;
    // The fault must not leave a temp file (or a torn target) behind.
    EXPECT_FALSE(std::ifstream(path).good()) << spec;
  }
  // Disarmed, the same save succeeds and loads back.
  resil::save_checkpoint(path, ck);
  EXPECT_EQ(resil::load_checkpoint(path).suite_fp, ck.suite_fp);
  std::remove(path.c_str());
}

TEST(CheckpointIoFaults, BoundedRetryAbsorbsTransientFailures) {
  const std::string path = tmp_path("ck_ioretry.bin");
  const CampaignCheckpoint ck = small_checkpoint();
  FaultInjector inj;
  for (const InjectionSpec& s : FaultInjector::parse("enospc:0:2")) {
    inj.add(s);
  }
  SnapshotInjectorGuard guard(inj);
  // Attempts 0 and 1 fail, attempt 2 succeeds: two retries reported.
  const std::uint64_t retried =
      resil::save_checkpoint_retry(path, ck, {/*retries=*/3,
                                              /*backoff_ms=*/1});
  EXPECT_EQ(retried, 2u);
  EXPECT_EQ(resil::load_checkpoint(path).suite_fp, ck.suite_fp);
  std::remove(path.c_str());
}

TEST(CheckpointIoFaults, RetryExhaustionPropagates) {
  const std::string path = tmp_path("ck_ioexhaust.bin");
  const CampaignCheckpoint ck = small_checkpoint();
  FaultInjector inj;
  for (const InjectionSpec& s : FaultInjector::parse("rename-fail:0:99")) {
    inj.add(s);
  }
  SnapshotInjectorGuard guard(inj);
  EXPECT_THROW(
      (void)resil::save_checkpoint_retry(path, ck, {2, 1}),
      resil::CheckpointIoError);
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(CheckpointIoFaults, CampaignRetriesWritesAndKeepsItsDigest) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 20, 12);

  // Reference: no injector, no checkpointing.
  CampaignOptions plain;
  CampaignRunner ref(c, u, t, plain);
  const std::uint64_t want = ref.run().digest();

  const std::string path = tmp_path("ck_iocampaign.bin");
  FaultInjector inj;
  // Save attempts 1 and 2 fail (attempt 0 -- the first periodic
  // checkpoint -- succeeds, proving mid-campaign recovery too).
  for (const InjectionSpec& s : FaultInjector::parse("enospc:1:2")) {
    inj.add(s);
  }
  SnapshotInjectorGuard guard(inj);

  CampaignOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 8;
  opt.checkpoint_retries = 3;
  opt.checkpoint_backoff_ms = 1;
  CampaignRunner runner(c, u, t, opt);
  const CampaignResult r = runner.run();
  EXPECT_EQ(r.checkpoint_write_retries, 2u);
  EXPECT_EQ(r.digest(), want);  // sabotaged I/O never touches results
  std::remove(path.c_str());
}

TEST(CheckpointIoFaults, CampaignSurfacesExhaustedRetries) {
  const Circuit c = make_benchmark("s27");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = make_suite(c.inputs().size(), 20, 12);

  const std::string path = tmp_path("ck_iodead.bin");
  FaultInjector inj;
  for (const InjectionSpec& s : FaultInjector::parse("short-write:0:99")) {
    inj.add(s);
  }
  SnapshotInjectorGuard guard(inj);

  CampaignOptions opt;
  opt.checkpoint_path = path;
  opt.checkpoint_every = 4;
  opt.checkpoint_retries = 2;
  opt.checkpoint_backoff_ms = 1;
  CampaignRunner runner(c, u, t, opt);
  EXPECT_THROW((void)runner.run(), resil::CheckpointIoError);
}

}  // namespace
}  // namespace cfs
