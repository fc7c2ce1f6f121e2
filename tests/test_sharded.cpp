// Sharded multi-threaded simulation: the partition is a disjoint balanced
// cover, and ShardedSim produces bit-for-bit the single-engine detection
// status and coverage for any thread count, across every CsimOptions
// variant, macro mode, and the transition model -- per vector, and over
// whole multi-sequence suites through run()'s epochs and the harness
// runners -- with telemetry attached or not.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <numeric>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/concurrent_sim.h"
#include "core/sim_model.h"
#include "faults/partition.h"
#include "gen/circuit_gen.h"
#include "harness/runner.h"
#include "netlist/macro_extract.h"
#include "obs/counters.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "patterns/pattern.h"
#include "sim/sharded_sim.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace cfs {
namespace {

// ---------------------------------------------------------------------------
// FaultPartition
// ---------------------------------------------------------------------------

TEST(FaultPartition, EveryFaultInExactlyOneShard) {
  const FaultPartition part(101, 4);
  ASSERT_EQ(part.num_shards(), 4u);
  std::vector<int> seen(101, 0);
  for (unsigned s = 0; s < part.num_shards(); ++s) {
    for (std::uint32_t id : part.shard(s)) {
      ASSERT_LT(id, 101u);
      ++seen[id];
      EXPECT_EQ(part.shard_of(id), s);
    }
  }
  for (std::uint32_t id = 0; id < 101; ++id) {
    EXPECT_EQ(seen[id], 1) << "fault " << id;
  }
}

TEST(FaultPartition, ShardSizesBalanced) {
  for (unsigned k : {1u, 2u, 3u, 7u, 8u}) {
    const FaultPartition part(100, k);
    std::size_t mn = 100, mx = 0;
    for (unsigned s = 0; s < k; ++s) {
      mn = std::min(mn, part.shard(s).size());
      mx = std::max(mx, part.shard(s).size());
    }
    EXPECT_LE(mx - mn, 1u) << k << " shards";
  }
}

TEST(FaultPartition, ZeroShardsClampedToOne) {
  const FaultPartition part(10, 0);
  EXPECT_EQ(part.num_shards(), 1u);
  EXPECT_EQ(part.shard(0).size(), 10u);
}

TEST(FaultPartition, MergeReadsOwnerShard) {
  const FaultPartition part(9, 3);
  // Shard s marks its own faults Hard and poisons everyone else's slot.
  std::vector<std::vector<Detect>> local(3,
                                         std::vector<Detect>(9, Detect::None));
  for (unsigned s = 0; s < 3; ++s) {
    for (std::uint32_t id = 0; id < 9; ++id) {
      local[s][id] = part.shard_of(id) == s ? Detect::Hard : Detect::Potential;
    }
  }
  const std::vector<Detect> merged =
      part.merge({&local[0], &local[1], &local[2]});
  for (std::uint32_t id = 0; id < 9; ++id) {
    EXPECT_EQ(merged[id], Detect::Hard) << "fault " << id;
  }
}

TEST(FaultPartition, MergeRejectsWrongSizes) {
  const FaultPartition part(9, 2);
  const std::vector<Detect> ok(9, Detect::None), bad(8, Detect::None);
  EXPECT_THROW(part.merge({&ok}), Error);
  EXPECT_THROW(part.merge({&ok, &bad}), Error);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int sum = 0;  // no synchronisation needed: size-1 pools never spawn
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  std::atomic<int> n{0};
  pool.parallel_for(8, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

// ---------------------------------------------------------------------------
// Thread-count invariance
// ---------------------------------------------------------------------------

Circuit make_test_circuit(std::uint64_t seed, unsigned gates = 24) {
  GenProfile gp;
  gp.name = "shard" + std::to_string(seed);
  gp.num_pis = 6;
  gp.num_pos = 4;
  gp.num_dffs = 8;
  gp.num_gates = gates;
  gp.seed = seed;
  return generate_circuit(gp);
}

// (split_lists, drop_detected) -- the paper's four engine configurations.
class ShardInvariance
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(ShardInvariance, StatusIdenticalForAnyShardCount) {
  const auto [split, drop] = GetParam();
  CsimOptions opt;
  opt.split_lists = split;
  opt.drop_detected = drop;

  const Circuit c = make_test_circuit(901);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 160, 17,
                                          /*x_permille=*/100);

  for (const Val ff_init : {Val::Zero, Val::X}) {
    ConcurrentSim ref(c, u, opt);
    ref.reset(ff_init);
    for (std::size_t i = 0; i < p.size(); ++i) ref.apply_vector(p[i]);

    for (unsigned k : {1u, 2u, 4u, 8u}) {
      ShardedOptions sopt;
      sopt.num_threads = k;
      sopt.csim = opt;
      ShardedSim sim(c, u, sopt);
      sim.reset(ff_init);
      std::size_t newly = 0;
      for (std::size_t i = 0; i < p.size(); ++i) newly += sim.apply_vector(p[i]);
      EXPECT_EQ(sim.status(), ref.status()) << k << " shards";
      EXPECT_EQ(sim.coverage().hard, ref.coverage().hard);
      EXPECT_EQ(sim.coverage().potential, ref.coverage().potential);
      EXPECT_EQ(newly, ref.coverage().hard) << k << " shards";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ShardInvariance,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "split" : "combined") +
             (std::get<1>(info.param) ? "_drop" : "_keep");
    });

TEST(ShardedSim, TransitionModeInvariant) {
  const Circuit c = make_test_circuit(902);
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 120, 23);

  ConcurrentSim ref(c, u);
  ref.reset(Val::Zero);
  for (std::size_t i = 0; i < p.size(); ++i) ref.apply_vector(p[i]);

  for (unsigned k : {1u, 2u, 4u, 8u}) {
    ShardedOptions sopt;
    sopt.num_threads = k;
    ShardedSim sim(c, u, sopt);
    sim.reset(Val::Zero);
    for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);
    EXPECT_EQ(sim.status(), ref.status()) << k << " shards";
  }
}

TEST(ShardedSim, MacroModeInvariant) {
  const Circuit c = make_test_circuit(903, 40);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const MacroExtraction ext = extract_macros(c);
  const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
  const PatternSet p = PatternSet::random(c.inputs().size(), 120, 29);

  ConcurrentSim ref(ext.circuit, u, CsimOptions{}, &mm);
  ref.reset(Val::Zero);
  for (std::size_t i = 0; i < p.size(); ++i) ref.apply_vector(p[i]);

  const auto model = std::make_shared<SimModel>(ext.circuit, u, &mm);
  for (unsigned k : {2u, 5u}) {
    ShardedOptions sopt;
    sopt.num_threads = k;
    ShardedSim sim(model, sopt);
    sim.reset(Val::Zero);
    for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);
    EXPECT_EQ(sim.status(), ref.status()) << k << " shards";
  }
}

// The id predates the epoch driver: run()'s epochs against an apply_vector()
// loop of one-vector epochs.
TEST(ShardedSim, CoarseRunMatchesLockstep) {
  const Circuit c = make_test_circuit(904);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 60, 31));
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 40, 37));

  ShardedOptions sopt;
  sopt.num_threads = 4;
  ShardedSim epochs(c, u, sopt);
  epochs.run(t);  // free-running epochs

  ShardedSim per_vector(c, u, sopt);  // one-vector epochs
  for (const PatternSet& seq : t.sequences()) {
    per_vector.reset();
    for (std::size_t i = 0; i < seq.size(); ++i) {
      per_vector.apply_vector(seq[i]);
    }
  }
  EXPECT_EQ(epochs.status(), per_vector.status());
}

// ---------------------------------------------------------------------------
// The epoch driver: telemetry and the rebalance policy never change how the
// shards run
// ---------------------------------------------------------------------------

using DetTuple = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t>;

std::vector<DetTuple> deterministic_tuples(const obs::Timeline& tl) {
  std::vector<DetTuple> out;
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const obs::TimelineSample& s = tl.at(i);
    out.emplace_back(s.vec, s.hard, s.potential, s.dropped, s.live_faults);
  }
  return out;
}

// Complete ("X") trace events on track `tid`.
std::size_t slices_on_track(const obs::TraceEmitter& trace, unsigned tid) {
  std::ostringstream os;
  trace.write(os);
  const std::string doc = os.str();
  const std::regex slice("\"tid\":\\s*" + std::to_string(tid) +
                         ",\\s*\"ph\":\\s*\"X\"");
  return static_cast<std::size_t>(
      std::distance(std::sregex_iterator(doc.begin(), doc.end(), slice),
                    std::sregex_iterator()));
}

TEST(ShardedSim, EpochsRunFreeWithTraceAndTimelineAttached) {
  const Circuit c = make_test_circuit(915, 200);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t(PatternSet::random(c.inputs().size(), 200, 53));
  ShardedOptions sopt;
  sopt.num_threads = 4;

  ShardedSim plain(c, u, sopt);
  plain.run(t, Val::Zero);

  ShardedSim observed(c, u, sopt);
  obs::TraceEmitter trace;
  obs::Timeline timeline(256);
  observed.set_trace(&trace);
  observed.set_timeline(&timeline);
  observed.run(t, Val::Zero);
  ASSERT_EQ(observed.num_shards(), 4u);

  // One slice per shard per epoch, not one per vector.
  const std::size_t epochs =
      (200 + kMaxEpochVectors - 1) / kMaxEpochVectors;
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(slices_on_track(trace, s), epochs) << "shard " << s;
  }

  // Every vector is still sampled, with the deterministic section of a
  // one-shard run and of a per-vector apply_vector() loop.
  ShardedOptions one;
  one.num_threads = 1;
  ShardedSim single(c, u, one);
  obs::Timeline single_tl(256);
  single.set_timeline(&single_tl);
  single.run(t, Val::Zero);
  ShardedSim looped(c, u, sopt);
  obs::Timeline looped_tl(256);
  looped.set_timeline(&looped_tl);
  looped.reset(Val::Zero);
  const PatternSet& seq = t.sequences()[0];
  for (std::size_t i = 0; i < seq.size(); ++i) looped.apply_vector(seq[i]);
  ASSERT_EQ(timeline.size(), 200u);
  EXPECT_EQ(deterministic_tuples(timeline), deterministic_tuples(single_tl));
  EXPECT_EQ(deterministic_tuples(timeline), deterministic_tuples(looped_tl));
  EXPECT_EQ(timeline.at(199).hard, summarize(plain.status()).hard);

  // Attaching telemetry costs no simulation work.
  const SimStats a = plain.stats(), b = observed.stats();
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(b.per_engine[s].gates_processed, a.per_engine[s].gates_processed)
        << "shard " << s;
    EXPECT_EQ(b.per_engine[s].counters.get(obs::Counter::ElementsTraversed),
              a.per_engine[s].counters.get(obs::Counter::ElementsTraversed))
        << "shard " << s;
  }
  EXPECT_EQ(observed.status(), plain.status());
}

TEST(ShardedSim, RebalanceFiresAtPolicyCheckPoints) {
  const Circuit c = make_test_circuit(916, 200);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 130, 59));
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 70, 61));
  ShardedOptions ref_opt;
  ref_opt.num_threads = 4;
  ShardedSim ref(c, u, ref_opt);
  ref.run(t, Val::Zero);

  for (const RebalancePolicy::Mode mode :
       {RebalancePolicy::Mode::Every, RebalancePolicy::Mode::Auto}) {
    ShardedOptions sopt = ref_opt;
    sopt.rebalance.mode = mode;
    sopt.rebalance.every = 10;
    sopt.rebalance.cooldown = 10;
    sopt.rebalance.threshold = 1.0;  // Auto fires at every check point too
    ShardedSim sim(c, u, sopt);
    obs::Timeline tl(256);
    sim.set_timeline(&tl);
    sim.run(t, Val::Zero);
    // A sample precedes its vector's check, so after vector v the count is
    // the number of multiples of 10 in [1, v].
    ASSERT_EQ(tl.size(), 200u);
    for (std::size_t i = 0; i < tl.size(); ++i) {
      EXPECT_EQ(tl.at(i).rebalances, tl.at(i).vec / 10) << "vec " << i;
    }
    EXPECT_EQ(sim.rebalances(), 20u);
    EXPECT_EQ(sim.status(), ref.status());
  }
}

// ---------------------------------------------------------------------------
// Whole-suite run(): multi-sequence suites through run()'s epochs and
// through a reset + apply_vector() loop of one-vector epochs.  The
// ShardedBatch suite name dates from the removed pattern-lane batch axis;
// these cases keep its ids and check the threads axis that remains.
// ---------------------------------------------------------------------------

Circuit make_comb_circuit(std::uint64_t seed, unsigned gates) {
  GenProfile gp;
  gp.name = "shard-comb" + std::to_string(seed);
  gp.num_pis = 10;
  gp.num_pos = 6;
  gp.num_dffs = 0;
  gp.num_gates = gates;
  gp.seed = seed;
  return generate_circuit(gp);
}

// `n` sequences of assorted lengths (1..9 vectors), each from a reset.
TestSuite multi_seq_suite(std::size_t num_inputs, std::size_t n,
                          std::uint64_t seed, unsigned x_permille = 50) {
  TestSuite t;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t len = 1 + (s * 7 + 3) % 9;
    t.sequences().push_back(
        PatternSet::random(num_inputs, len, seed + s, x_permille));
  }
  return t;
}

struct SuiteRecord {
  std::vector<Detect> status;
  std::uint64_t hard = 0, potential = 0, dropped = 0;
};

SuiteRecord run_suite(const Circuit& c, const FaultUniverse& u,
                      const TestSuite& t, unsigned threads, bool per_vector,
                      const MacroFaultMap* mmap = nullptr) {
  ShardedOptions sopt;
  sopt.num_threads = threads;
  ShardedSim sim(c, u, sopt, mmap);
  SuiteRecord r;
  if (per_vector) {
    for (const PatternSet& seq : t.sequences()) {
      sim.reset(Val::X);
      for (std::size_t i = 0; i < seq.size(); ++i) sim.apply_vector(seq[i]);
    }
  } else {
    sim.run(t, Val::X);
  }
  r.status = sim.status();
  const obs::Counters& cnt = sim.stats().total.counters;
  r.hard = cnt.get(obs::Counter::DetectionsHard);
  r.potential = cnt.get(obs::Counter::DetectionsPotential);
  r.dropped = cnt.get(obs::Counter::FaultsDropped);
  return r;
}

void expect_same_run(const SuiteRecord& got, const SuiteRecord& want,
                     const std::string& where) {
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.hard, want.hard) << where;
  EXPECT_EQ(got.potential, want.potential) << where;
  EXPECT_EQ(got.dropped, want.dropped) << where;
}

TEST(ShardedBatch, StuckAtInvariantAcrossBatchAndThreads) {
  const Circuit c = make_test_circuit(911, 260);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 9, 400);

  const SuiteRecord ref = run_suite(c, u, t, 1, /*per_vector=*/false);
  EXPECT_GT(summarize(ref.status).hard, 0u);
  for (unsigned threads : {2u, 4u}) {
    const std::string at = "threads " + std::to_string(threads);
    expect_same_run(run_suite(c, u, t, threads, true), ref,
                    "apply_vector, " + at);
    expect_same_run(run_suite(c, u, t, threads, false), ref, "run, " + at);
  }
}

TEST(ShardedBatch, CombinationalInvariantAcrossBatchAndThreads) {
  const Circuit c = make_comb_circuit(19, 240);
  ASSERT_TRUE(c.dffs().empty());
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 3, 500, 100);

  const SuiteRecord ref = run_suite(c, u, t, 1, /*per_vector=*/false);
  EXPECT_GT(summarize(ref.status).hard, 0u);
  for (unsigned threads : {2u, 4u}) {
    const std::string at = "threads " + std::to_string(threads);
    expect_same_run(run_suite(c, u, t, threads, true), ref,
                    "apply_vector, " + at);
    expect_same_run(run_suite(c, u, t, threads, false), ref, "run, " + at);
  }
}

TEST(ShardedBatch, MacroModeInvariant) {
  const Circuit c = make_test_circuit(912, 200);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const MacroExtraction ext = extract_macros(c);
  const MacroFaultMap mmap = map_faults_to_macros(c, ext, u);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 6, 600);

  const SuiteRecord ref =
      run_suite(ext.circuit, u, t, 1, /*per_vector=*/false, &mmap);
  for (unsigned threads : {2u, 4u}) {
    expect_same_run(run_suite(ext.circuit, u, t, threads, false, &mmap), ref,
                    "threads " + std::to_string(threads));
  }
}

TEST(ShardedBatch, TransitionModeInvariant) {
  const Circuit c = make_test_circuit(913, 180);
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 6, 700);

  ConcurrentSim single(c, u);
  for (const PatternSet& seq : t.sequences()) {
    single.reset(Val::X);
    for (std::size_t i = 0; i < seq.size(); ++i) single.apply_vector(seq[i]);
  }
  const Coverage ref = single.coverage();
  for (unsigned threads : {1u, 2u, 4u}) {
    const RunResult got = run_csim_transition(c, u, t, Val::X, true, threads);
    EXPECT_EQ(got.cov.hard, ref.hard) << "threads " << threads;
    EXPECT_EQ(got.cov.potential, ref.potential) << "threads " << threads;
    EXPECT_EQ(got.cov.total, ref.total);
  }
}

// run_csim() at one thread is the plain engine: same coverage, the same
// memory figure and an unsuffixed name; more threads only add " xK".
TEST(ShardedBatch, RunnerParityWithSingleEngine) {
  const Circuit c = make_test_circuit(914, 160);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 8, 800);
  const MacroExtraction ext = extract_macros(c);
  const MacroFaultMap mmap = map_faults_to_macros(c, ext, u);

  for (CsimVariant v : {CsimVariant::V, CsimVariant::MV}) {
    const bool macros = v == CsimVariant::MV;
    const Circuit& sc = macros ? ext.circuit : c;
    ConcurrentSim single(sc, u, CsimOptions{}, macros ? &mmap : nullptr);
    for (const PatternSet& seq : t.sequences()) {
      single.reset(Val::X);
      for (std::size_t i = 0; i < seq.size(); ++i) single.apply_vector(seq[i]);
    }
    for (unsigned threads : {1u, 2u}) {
      const RunResult got = run_csim(c, u, t, v, Val::X, true, threads);
      const std::string at =
          variant_name(v) + " threads " + std::to_string(threads);
      EXPECT_EQ(got.cov.hard, single.coverage().hard) << at;
      EXPECT_EQ(got.cov.potential, single.coverage().potential) << at;
      EXPECT_EQ(got.cov.total, single.coverage().total) << at;
      EXPECT_EQ(got.threads, threads) << at;
      if (threads == 1) {
        EXPECT_EQ(got.sim_name, variant_name(v));
        EXPECT_EQ(got.mem_bytes, single.bytes() + sc.bytes()) << at;
      } else {
        EXPECT_EQ(got.sim_name, variant_name(v) + " x2");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared model and aggregated accounting
// ---------------------------------------------------------------------------

TEST(SimModel, SharedAcrossEnginesMatchesPrivateModels) {
  const Circuit c = make_test_circuit(906);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 80, 43);

  const auto model = std::make_shared<SimModel>(c, u);
  ConcurrentSim a(model), b(model);  // two engines, one table set
  ConcurrentSim lone(c, u);
  a.reset(Val::Zero);
  b.reset(Val::X);
  lone.reset(Val::Zero);
  for (std::size_t i = 0; i < p.size(); ++i) {
    a.apply_vector(p[i]);
    b.apply_vector(p[i]);
    lone.apply_vector(p[i]);
  }
  EXPECT_EQ(a.status(), lone.status());
  a.settle();
  b.settle();
  a.validate();
  b.validate();
}

TEST(SimModel, RejectsMismatchedPartition) {
  const Circuit c = make_test_circuit(907);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const auto model = std::make_shared<SimModel>(c, u);
  const FaultPartition wrong(u.size() + 1, 2);
  EXPECT_THROW(ConcurrentSim(model, CsimOptions{}, &wrong, 0), Error);
  const FaultPartition part(u.size(), 2);
  EXPECT_THROW(ConcurrentSim(model, CsimOptions{}, &part, 2), Error);
}

TEST(ShardedSim, StatsAggregateAcrossShards) {
  const Circuit c = make_test_circuit(908);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 60, 47);

  ShardedOptions sopt;
  sopt.num_threads = 4;
  ShardedSim sim(c, u, sopt);
  sim.reset(Val::Zero);
  for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);

  const SimStats st = sim.stats();
  ASSERT_EQ(st.per_engine.size(), 4u);
  EngineStats sum;
  for (const EngineStats& e : st.per_engine) {
    sum.gates_processed += e.gates_processed;
    sum.elements_evaluated += e.elements_evaluated;
    sum.peak_elements += e.peak_elements;
    sum.state_bytes += e.state_bytes;
    EXPECT_GT(e.gates_processed, 0u);
  }
  EXPECT_EQ(st.total.gates_processed, sum.gates_processed);
  EXPECT_EQ(st.total.elements_evaluated, sum.elements_evaluated);
  EXPECT_EQ(st.total.peak_elements, sum.peak_elements);
  EXPECT_EQ(st.total.state_bytes, sum.state_bytes);
  EXPECT_EQ(st.model_bytes, sim.model().bytes());
  EXPECT_EQ(st.circuit_bytes, c.bytes());
  EXPECT_EQ(sim.bytes(), sum.state_bytes + st.model_bytes);
}

TEST(ShardedSim, MemoryTableStaysTruthfulUnderShards) {
  const Circuit c = make_test_circuit(909);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 40, 53);

  ShardedOptions sopt;
  sopt.num_threads = 3;
  ShardedSim sim(c, u, sopt);
  sim.reset(Val::Zero);
  for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);

  MemStats ms;
  sim.report_memory(ms);
  std::size_t pools = 0;
  for (unsigned s = 0; s < sim.num_shards(); ++s) {
    pools += sim.engine(s).pool_bytes();
  }
  std::size_t fault_elements = 0, total = 0;
  for (const auto& [name, bytes] : ms.categories()) {
    if (name == "fault_elements") fault_elements = bytes;
    total += bytes;
  }
  EXPECT_EQ(fault_elements, pools);
  EXPECT_EQ(total, sim.bytes() + c.bytes());
  EXPECT_EQ(ms.current(), total);
}

TEST(ShardedSim, ShardCountClampedToUniverse) {
  const Circuit c = make_test_circuit(910);
  FaultUniverse u;  // tiny universe: 2 faults
  u.add(Fault{FaultType::StuckAt, c.inputs()[0], kFaultOutPin, Val::One});
  u.add(Fault{FaultType::StuckAt, c.inputs()[1], kFaultOutPin, Val::Zero});
  ShardedOptions sopt;
  sopt.num_threads = 8;
  ShardedSim sim(c, u, sopt);
  EXPECT_EQ(sim.num_shards(), 2u);
}

}  // namespace
}  // namespace cfs
