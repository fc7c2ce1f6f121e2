#include "harness/runner.h"

#include "baseline/proofs_sim.h"
#include "baseline/serial_sim.h"
#include "netlist/macro_extract.h"
#include "obs/timers.h"

namespace cfs {

std::string variant_name(CsimVariant v) {
  switch (v) {
    case CsimVariant::Plain: return "csim";
    case CsimVariant::V: return "csim-V";
    case CsimVariant::M: return "csim-M";
    case CsimVariant::MV: return "csim-MV";
  }
  return "?";
}

namespace {

// Apply a test suite through any engine exposing reset(Val) and
// apply_vector(span): one reset per sequence.  The whole suite runs inside
// the Run phase of `rt`, the same accumulator the telemetry export reads,
// so the tables' CPU column and the stats JSON cannot disagree.
template <typename Engine>
double apply_suite(Engine& sim, const TestSuite& t, Val ff_init,
                   obs::PhaseTimers& rt) {
  {
    obs::ScopedPhase sp(rt, obs::Phase::Run);
    for (const PatternSet& seq : t.sequences()) {
      sim.reset(ff_init);
      for (std::size_t i = 0; i < seq.size(); ++i) sim.apply_vector(seq[i]);
    }
  }
  return rt.seconds(obs::Phase::Run);
}

// Single-engine runs fill the same SimStats shape the sharded driver
// reports, so every csim RunResult carries counters and phase timers.
SimStats one_engine_stats(const ConcurrentSim& sim) {
  SimStats st;
  EngineStats es;
  es.gates_processed = sim.gates_processed();
  es.elements_evaluated = sim.elements_evaluated();
  es.vectors_simulated = sim.vectors_simulated();
  es.faults_dropped = sim.faults_dropped();
  es.peak_elements = sim.peak_elements();
  es.state_bytes = sim.state_bytes();
  es.counters = sim.counters();
  es.timers = sim.timers();
  st.total = es;
  st.per_engine.push_back(std::move(es));
  st.model_bytes = sim.model().bytes();
  st.circuit_bytes = sim.circuit().bytes();
  return st;
}

}  // namespace

RunResult run_csim(const Circuit& c, const FaultUniverse& u,
                   const TestSuite& t, CsimVariant variant, Val ff_init,
                   bool drop_detected) {
  RunResult r;
  r.sim_name = variant_name(variant);

  CsimOptions opt;
  opt.split_lists = variant == CsimVariant::V || variant == CsimVariant::MV;
  opt.drop_detected = drop_detected;
  const bool use_macros =
      variant == CsimVariant::M || variant == CsimVariant::MV;

  if (use_macros) {
    MacroExtraction ext = extract_macros(c);
    MacroFaultMap mmap = map_faults_to_macros(c, ext, u);
    ConcurrentSim sim(ext.circuit, u, opt, &mmap);
    r.cpu_s = apply_suite(sim, t, ff_init, r.run_timers);
    r.mem_bytes = sim.bytes() + ext.circuit.bytes();
    r.cov = sim.coverage();
    r.activity = sim.elements_evaluated();
    r.stats = one_engine_stats(sim);
  } else {
    ConcurrentSim sim(c, u, opt);
    r.cpu_s = apply_suite(sim, t, ff_init, r.run_timers);
    r.mem_bytes = sim.bytes() + c.bytes();
    r.cov = sim.coverage();
    r.activity = sim.elements_evaluated();
    r.stats = one_engine_stats(sim);
  }
  return r;
}

RunResult run_proofs(const Circuit& c, const FaultUniverse& u,
                     const TestSuite& t, Val ff_init) {
  RunResult r;
  r.sim_name = "PROOFS";
  ProofsSim sim(c, u, ff_init);
  r.cpu_s = apply_suite(sim, t, ff_init, r.run_timers);
  r.mem_bytes = sim.bytes() + c.bytes();
  r.cov = sim.coverage();
  r.activity = sim.word_evals();
  return r;
}

RunResult run_serial(const Circuit& c, const FaultUniverse& u,
                     const TestSuite& t, Val ff_init) {
  RunResult r;
  r.sim_name = "serial";
  SerialOptions opt;
  opt.ff_init = ff_init;
  SerialResult sr;
  {
    obs::ScopedPhase sp(r.run_timers, obs::Phase::Run);
    sr = serial_fault_sim(c, u, t, opt);
  }
  r.cpu_s = r.run_timers.seconds(obs::Phase::Run);
  r.mem_bytes = c.bytes();
  r.cov = summarize(sr.status);
  r.activity = sr.events;
  return r;
}

RunResult run_csim_sharded(const Circuit& c, const FaultUniverse& u,
                           const TestSuite& t, CsimVariant variant,
                           unsigned num_threads, Val ff_init,
                           bool drop_detected, obs::TraceEmitter* trace,
                           obs::Timeline* timeline,
                           const RebalancePolicy& rebalance) {
  RunResult r;
  ShardedOptions sopt;
  sopt.num_threads = num_threads;
  sopt.rebalance = rebalance;
  sopt.csim.split_lists =
      variant == CsimVariant::V || variant == CsimVariant::MV;
  sopt.csim.drop_detected = drop_detected;
  const bool use_macros =
      variant == CsimVariant::M || variant == CsimVariant::MV;

  auto run_one = [&](ShardedSim& sim, std::size_t extra_bytes) {
    if (trace != nullptr) sim.set_trace(trace);
    if (timeline != nullptr) sim.set_timeline(timeline);
    {
      obs::ScopedPhase sp(r.run_timers, obs::Phase::Run);
      sim.run(t, ff_init);
    }
    r.cpu_s = r.run_timers.seconds(obs::Phase::Run);
    r.threads = sim.num_shards();
    r.sim_name = variant_name(variant) + " x" + std::to_string(r.threads);
    r.mem_bytes = sim.bytes() + extra_bytes;
    r.cov = sim.coverage();
    r.stats = sim.stats();
    r.activity = r.stats.total.elements_evaluated;
  };

  if (use_macros) {
    MacroExtraction ext = extract_macros(c);
    MacroFaultMap mmap = map_faults_to_macros(c, ext, u);
    ShardedSim sim(ext.circuit, u, sopt, &mmap);
    run_one(sim, ext.circuit.bytes());
  } else {
    ShardedSim sim(c, u, sopt);
    run_one(sim, c.bytes());
  }
  return r;
}

RunResult run_csim_transition_sharded(const Circuit& c,
                                      const FaultUniverse& u,
                                      const TestSuite& t,
                                      unsigned num_threads, Val ff_init,
                                      bool split_lists,
                                      obs::TraceEmitter* trace,
                                      obs::Timeline* timeline,
                                      const RebalancePolicy& rebalance) {
  RunResult r;
  ShardedOptions sopt;
  sopt.num_threads = num_threads;
  sopt.rebalance = rebalance;
  sopt.csim.split_lists = split_lists;
  ShardedSim sim(c, u, sopt);
  if (trace != nullptr) sim.set_trace(trace);
  if (timeline != nullptr) sim.set_timeline(timeline);
  {
    obs::ScopedPhase sp(r.run_timers, obs::Phase::Run);
    sim.run(t, ff_init);
  }
  r.cpu_s = r.run_timers.seconds(obs::Phase::Run);
  r.threads = sim.num_shards();
  r.sim_name = std::string(split_lists ? "csim-V" : "csim") +
               " (transition) x" + std::to_string(r.threads);
  r.mem_bytes = sim.bytes() + c.bytes();
  r.cov = sim.coverage();
  r.stats = sim.stats();
  r.activity = r.stats.total.elements_evaluated;
  return r;
}

RunResult run_csim_transition(const Circuit& c, const FaultUniverse& u,
                              const TestSuite& t, Val ff_init,
                              bool split_lists) {
  RunResult r;
  r.sim_name = split_lists ? "csim-V (transition)" : "csim (transition)";
  CsimOptions opt;
  opt.split_lists = split_lists;
  ConcurrentSim sim(c, u, opt);
  r.cpu_s = apply_suite(sim, t, ff_init, r.run_timers);
  r.mem_bytes = sim.bytes() + c.bytes();
  r.cov = sim.coverage();
  r.activity = sim.elements_evaluated();
  r.stats = one_engine_stats(sim);
  return r;
}

}  // namespace cfs
