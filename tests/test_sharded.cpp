// Sharded multi-threaded simulation: the partition is a disjoint balanced
// cover, and ShardedSim produces bit-for-bit the single-engine detection
// status, coverage, and PO-mismatch observation stream for any thread
// count, across every CsimOptions variant, macro mode, and the transition
// model -- per vector, and over whole multi-sequence suites through both
// run() drivers and the harness runners.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "core/concurrent_sim.h"
#include "core/sim_model.h"
#include "faults/partition.h"
#include "gen/circuit_gen.h"
#include "harness/runner.h"
#include "netlist/macro_extract.h"
#include "obs/counters.h"
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

TEST(ShardedSim, CoarseRunMatchesLockstep) {
  const Circuit c = make_test_circuit(904);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  TestSuite t;
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 60, 31));
  t.sequences().push_back(PatternSet::random(c.inputs().size(), 40, 37));

  ShardedOptions sopt;
  sopt.num_threads = 4;
  ShardedSim coarse(c, u, sopt);
  coarse.run(t);  // no observer: one fork-join for the whole suite

  ShardedSim lockstep(c, u, sopt);
  for (const PatternSet& seq : t.sequences()) {
    lockstep.reset();
    for (std::size_t i = 0; i < seq.size(); ++i) lockstep.apply_vector(seq[i]);
  }
  EXPECT_EQ(coarse.status(), lockstep.status());
}

TEST(ShardedSim, ObservationStreamMatchesSingleEngine) {
  const Circuit c = make_test_circuit(905);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), 100, 41);
  using Event = std::tuple<std::size_t, std::uint32_t, std::uint32_t, bool>;

  CsimOptions opt;
  opt.drop_detected = false;  // repeats exercise the stream harder

  std::vector<Event> want;
  {
    ConcurrentSim ref(c, u, opt);
    std::size_t vec = 0;
    ref.set_detection_observer(
        [&](std::uint32_t fault, std::uint32_t po, bool hard) {
          want.emplace_back(vec, fault, po, hard);
        });
    ref.reset(Val::Zero);
    for (; vec < p.size(); ++vec) ref.apply_vector(p[vec]);
  }
  ASSERT_FALSE(want.empty());

  for (unsigned k : {1u, 3u, 8u}) {
    ShardedOptions sopt;
    sopt.num_threads = k;
    sopt.csim = opt;
    ShardedSim sim(c, u, sopt);
    std::vector<Event> got;
    std::size_t vec = 0;
    sim.set_detection_observer(
        [&](std::uint32_t fault, std::uint32_t po, bool hard) {
          got.emplace_back(vec, fault, po, hard);
        });
    sim.reset(Val::Zero);
    for (; vec < p.size(); ++vec) sim.apply_vector(p[vec]);
    EXPECT_EQ(got, want) << k << " shards";
  }
}

// ---------------------------------------------------------------------------
// Whole-suite run(): multi-sequence suites through the coarse driver (no
// observer) and the lockstep driver (observer attached). The ShardedBatch
// suite name dates from the removed pattern-lane batch axis; these cases keep
// its ids and check the threads axis that remains.
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
  std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> observations;
  std::uint64_t hard = 0, potential = 0, dropped = 0;
};

SuiteRecord run_suite(const Circuit& c, const FaultUniverse& u,
                      const TestSuite& t, unsigned threads, bool observe,
                      const MacroFaultMap* mmap = nullptr) {
  ShardedOptions sopt;
  sopt.num_threads = threads;
  ShardedSim sim(c, u, sopt, mmap);
  SuiteRecord r;
  if (observe) {
    sim.set_detection_observer(
        [&r](std::uint32_t fault, std::uint32_t po, bool hard) {
          r.observations.emplace_back(fault, po, hard);
        });
  }
  sim.run(t, Val::X);
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
  EXPECT_EQ(got.observations, want.observations) << where;
  EXPECT_EQ(got.hard, want.hard) << where;
  EXPECT_EQ(got.potential, want.potential) << where;
  EXPECT_EQ(got.dropped, want.dropped) << where;
}

TEST(ShardedBatch, StuckAtInvariantAcrossBatchAndThreads) {
  const Circuit c = make_test_circuit(911, 260);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 9, 400);

  const SuiteRecord ref = run_suite(c, u, t, 1, /*observe=*/true);
  EXPECT_FALSE(ref.observations.empty());
  SuiteRecord coarse_ref = ref;
  coarse_ref.observations.clear();
  for (unsigned threads : {2u, 4u}) {
    const std::string at = "threads " + std::to_string(threads);
    expect_same_run(run_suite(c, u, t, threads, true), ref, "lockstep, " + at);
    expect_same_run(run_suite(c, u, t, threads, false), coarse_ref,
                    "coarse, " + at);
  }
}

TEST(ShardedBatch, CombinationalInvariantAcrossBatchAndThreads) {
  const Circuit c = make_comb_circuit(19, 240);
  ASSERT_TRUE(c.dffs().empty());
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 3, 500, 100);

  const SuiteRecord ref = run_suite(c, u, t, 1, /*observe=*/true);
  EXPECT_FALSE(ref.observations.empty());
  SuiteRecord coarse_ref = ref;
  coarse_ref.observations.clear();
  for (unsigned threads : {2u, 4u}) {
    const std::string at = "threads " + std::to_string(threads);
    expect_same_run(run_suite(c, u, t, threads, true), ref, "lockstep, " + at);
    expect_same_run(run_suite(c, u, t, threads, false), coarse_ref,
                    "coarse, " + at);
  }
}

TEST(ShardedBatch, MacroModeInvariant) {
  const Circuit c = make_test_circuit(912, 200);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const MacroExtraction ext = extract_macros(c);
  const MacroFaultMap mmap = map_faults_to_macros(c, ext, u);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 6, 600);

  const SuiteRecord ref =
      run_suite(ext.circuit, u, t, 1, /*observe=*/false, &mmap);
  for (unsigned threads : {2u, 4u}) {
    expect_same_run(run_suite(ext.circuit, u, t, threads, false, &mmap), ref,
                    "threads " + std::to_string(threads));
  }
}

TEST(ShardedBatch, TransitionModeInvariant) {
  const Circuit c = make_test_circuit(913, 180);
  const FaultUniverse u = FaultUniverse::all_transition(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 6, 700);

  const RunResult ref = run_csim_transition(c, u, t, Val::X, true);
  for (unsigned threads : {1u, 2u, 4u}) {
    const RunResult got =
        run_csim_transition_sharded(c, u, t, threads, Val::X, true);
    EXPECT_EQ(got.cov.hard, ref.cov.hard) << "threads " << threads;
    EXPECT_EQ(got.cov.potential, ref.cov.potential) << "threads " << threads;
    EXPECT_EQ(got.cov.total, ref.cov.total);
  }
}

TEST(ShardedBatch, RunnerParityWithSingleEngine) {
  const Circuit c = make_test_circuit(914, 160);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const TestSuite t = multi_seq_suite(c.inputs().size(), 8, 800);

  for (CsimVariant v : {CsimVariant::V, CsimVariant::MV}) {
    const RunResult base = run_csim(c, u, t, v, Val::X);
    for (unsigned threads : {1u, 2u}) {
      const RunResult got = run_csim_sharded(c, u, t, v, threads, Val::X);
      EXPECT_EQ(got.cov.hard, base.cov.hard)
          << variant_name(v) << " threads " << threads;
      EXPECT_EQ(got.cov.potential, base.cov.potential);
      EXPECT_EQ(got.cov.total, base.cov.total);
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
