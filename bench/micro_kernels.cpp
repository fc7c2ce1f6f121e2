// Micro-benchmarks (google-benchmark) of the kernels the paper's speed
// rests on: table-lookup vs fold gate evaluation, the level-bucket event
// queue, the good-machine simulator, fault-list merging via the full
// engine, and the timing wheel.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/concurrent_sim.h"
#include "faults/fault.h"
#include "gen/circuit_gen.h"
#include "gen/iscas_profiles.h"
#include "netlist/gate.h"
#include "patterns/pattern.h"
#include "sim/delay_sim.h"
#include "sim/good_sim.h"

namespace {

using namespace cfs;

Circuit medium_circuit() {
  GenProfile p;
  p.name = "bench_med";
  p.num_pis = 16;
  p.num_pos = 8;
  p.num_dffs = 32;
  p.num_gates = 800;
  p.seed = 1234;
  return generate_circuit(p);
}

void BM_GateEvalFold(benchmark::State& state) {
  GateState s = 0;
  s = state_set(s, 0, Val::One);
  s = state_set(s, 1, Val::X);
  s = state_set(s, 2, Val::One);
  s = state_set(s, 3, Val::Zero);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval_kind(GateKind::Nand, s, 4));
    s ^= 0b10;  // perturb a pin so the value is not constant-folded
  }
}
BENCHMARK(BM_GateEvalFold);

void BM_GateEvalTable(benchmark::State& state) {
  const auto& table = fast_table(GateKind::Nand, 4);
  GateState s = 0b01110010;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table[s & 0xFF]);
    s = (s * 0x9E37u + 1) & 0xFF;
  }
}
BENCHMARK(BM_GateEvalTable);

void BM_GoodSimVector(benchmark::State& state) {
  const Circuit c = medium_circuit();
  GoodSim sim(c, Val::Zero);
  const PatternSet p = PatternSet::random(c.inputs().size(), 256, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    sim.apply(p[i % p.size()]);
    sim.clock();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_GoodSimVector);

void BM_ConcurrentVector(benchmark::State& state) {
  const Circuit c = medium_circuit();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  CsimOptions opt;
  opt.split_lists = state.range(0) != 0;
  opt.drop_detected = false;  // steady-state fault population
  ConcurrentSim sim(c, u, opt);
  sim.reset(Val::Zero);
  const PatternSet p = PatternSet::random(c.inputs().size(), 256, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    sim.apply_vector(p[i % p.size()]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_ConcurrentVector)->Arg(0)->Arg(1);

// Many short sequences with a reset between each, the pattern where pool
// compaction (arg = 1) earns its keep: each reset re-dispenses the arena
// from index 0, so the rebuilt lists are laid out contiguously in
// traversal order instead of inheriting the previous sequence's scrambled
// free list.  Compare against arg = 0 (same work, free-list order).
void BM_ConcurrentResequence(benchmark::State& state) {
  const Circuit c = medium_circuit();
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  CsimOptions opt;
  opt.split_lists = true;
  opt.drop_detected = false;
  opt.compact_pool = state.range(0) != 0;
  ConcurrentSim sim(c, u, opt);
  const PatternSet p = PatternSet::random(c.inputs().size(), 32, 3);
  for (auto _ : state) {
    sim.reset(Val::Zero);
    for (std::size_t i = 0; i < p.size(); ++i) sim.apply_vector(p[i]);
  }
  // One item = one vector (reset amortised in), the same unit
  // BM_ConcurrentVector reports, so the two items_per_second columns are
  // directly comparable.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.size()));
}
BENCHMARK(BM_ConcurrentResequence)->Arg(0)->Arg(1);

void BM_DelaySimWave(benchmark::State& state) {
  GenProfile gp;
  gp.name = "bench_comb";
  gp.num_pis = 12;
  gp.num_pos = 8;
  gp.num_dffs = 0;
  gp.num_gates = 400;
  gp.seed = 99;
  const Circuit c = generate_circuit(gp);
  DelaySim sim(c, 2u);
  std::uint64_t toggle = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < c.inputs().size(); ++i) {
      sim.set_input(i, ((toggle >> i) & 1) ? Val::One : Val::Zero);
    }
    sim.run();
    ++toggle;
  }
}
BENCHMARK(BM_DelaySimWave);

}  // namespace

// Same --json=FILE convention as the table benches (run_benches.sh), spelled
// via google-benchmark's reporter flags.  Everything else passes through.
int main(int argc, char** argv) {
  static std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      args.push_back("--benchmark_out=" + a.substr(7));
      args.push_back("--benchmark_out_format=json");
    } else {
      args.push_back(a);
    }
  }
  std::vector<char*> cargv;
  for (std::string& a : args) cargv.push_back(a.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
