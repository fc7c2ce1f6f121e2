// Structural invariants of the concurrent engine, checked after every
// vector with the deep validator, plus canonical-number anchors.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "core/concurrent_sim.h"
#include "faults/macro_map.h"
#include "gen/circuit_gen.h"
#include "gen/known_circuits.h"
#include "netlist/macro_extract.h"
#include "patterns/pattern.h"

namespace cfs {
namespace {

struct Config {
  std::uint64_t seed;
  bool split;
  bool macro;
  bool drop;
  Val init;
};

// Without this, gtest prints a Config as its raw bytes, padding included,
// and the test names change from run to run.
void PrintTo(const Config& cfg, std::ostream* os) {
  *os << "seed" << cfg.seed << (cfg.split ? "_split" : "_combined")
      << (cfg.macro ? "_macro" : "") << (cfg.drop ? "_drop" : "_keep")
      << "_init" << to_char(cfg.init);
}

class CsimInvariants : public ::testing::TestWithParam<Config> {};

TEST_P(CsimInvariants, HoldAfterEveryVector) {
  const Config cfg = GetParam();
  GenProfile gp;
  gp.name = "inv" + std::to_string(cfg.seed);
  gp.num_pis = 5;
  gp.num_pos = 4;
  gp.num_dffs = 8;
  gp.num_gates = 120;
  gp.seed = cfg.seed;
  const Circuit c = generate_circuit(gp);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p =
      PatternSet::random(5, 40, cfg.seed * 3 + 1, /*x_permille=*/100);

  CsimOptions opt;
  opt.split_lists = cfg.split;
  opt.drop_detected = cfg.drop;

  if (cfg.macro) {
    const MacroExtraction ext = extract_macros(c);
    const MacroFaultMap mm = map_faults_to_macros(c, ext, u);
    ConcurrentSim sim(ext.circuit, u, opt, &mm);
    sim.reset(cfg.init);
    sim.validate();
    for (std::size_t i = 0; i < p.size(); ++i) {
      sim.apply_vector(p[i]);
      // clock() leaves the flip-flop fanouts queued for the next vector's
      // settle; the invariants hold once they drain.
      sim.settle();
      ASSERT_NO_THROW(sim.validate()) << "vector " << i;
    }
  } else {
    ConcurrentSim sim(c, u, opt);
    sim.reset(cfg.init);
    sim.validate();
    for (std::size_t i = 0; i < p.size(); ++i) {
      sim.apply_vector(p[i]);
      sim.settle();
      ASSERT_NO_THROW(sim.validate()) << "vector " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CsimInvariants,
    ::testing::Values(Config{601, true, false, true, Val::X},
                      Config{602, false, false, true, Val::X},
                      Config{603, true, true, true, Val::Zero},
                      Config{604, false, true, false, Val::X},
                      Config{605, true, false, false, Val::Zero},
                      Config{606, true, true, true, Val::X}));

TEST(CsimValidate, ThrowsWhileEventsPendingUntilSettle) {
  // clock() commits the flip-flops and leaves their fanout events queued;
  // validate() must say so rather than report the not-yet-merged pins.
  GenProfile gp;
  gp.name = "inv-pending";
  gp.num_pis = 5;
  gp.num_pos = 4;
  gp.num_dffs = 8;
  gp.num_gates = 120;
  gp.seed = 607;
  const Circuit c = generate_circuit(gp);
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(5, 20, 607);
  ConcurrentSim sim(c, u);
  sim.reset(Val::Zero);
  std::size_t pending = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    sim.apply_vector(p[i]);
    try {
      sim.validate();
    } catch (const Error& e) {
      ASSERT_STREQ(e.what(), "validate: events pending; call settle() first")
          << "vector " << i;
      ++pending;
    }
    sim.settle();
    ASSERT_NO_THROW(sim.validate()) << "vector " << i;
  }
  EXPECT_GT(pending, 0u);
}

TEST(CanonicalNumbers, S27CollapsesTo32Classes) {
  // The classic collapsed stuck-at fault count for s27 is 32.
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const auto rep = collapse_equivalent(c, u);
  std::set<std::uint32_t> classes(rep.begin(), rep.end());
  EXPECT_EQ(classes.size(), 32u);
}

TEST(CanonicalNumbers, C17UniverseAndFullCoverage) {
  // c17: 6 NAND gates + 5 PIs = 22 output faults; branch pins: gates 3, 6,
  // 11, 16 have multi-fanout drivers.  Exhaustive patterns detect every
  // non-redundant fault; c17 famously has none redundant (all 100%
  // detectable).
  const Circuit c = make_c17();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim sim(c, u);
  for (int v = 0; v < 32; ++v) {
    std::vector<Val> in;
    for (int b = 0; b < 5; ++b) {
      in.push_back((v >> b) & 1 ? Val::One : Val::Zero);
    }
    sim.apply_vector(in);
  }
  EXPECT_EQ(sim.coverage().hard, u.size());
}

TEST(CanonicalNumbers, S27FullCoverageWithRandomVectors) {
  const Circuit c = make_s27();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  ConcurrentSim sim(c, u);
  const PatternSet p = PatternSet::random(4, 400, 3);
  for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);
  // All 52 enumerated faults of s27 are detectable (no redundancies).
  EXPECT_EQ(sim.coverage().hard, u.size());
}

}  // namespace
}  // namespace cfs
