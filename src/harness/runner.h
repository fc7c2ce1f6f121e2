// Experiment runner: applies a pattern set through one simulator engine
// and collects the paper's measured quantities (CPU seconds, memory,
// coverage, activity).
#pragma once

#include <string>

#include "core/concurrent_sim.h"
#include "faults/fault.h"
#include "netlist/circuit.h"
#include "obs/timers.h"
#include "obs/trace.h"
#include "patterns/pattern.h"
#include "sim/sharded_sim.h"

namespace cfs {

struct RunResult {
  std::string sim_name;
  double cpu_s = 0.0;  ///< == run_timers.seconds(obs::Phase::Run)
  std::size_t mem_bytes = 0;
  Coverage cov;
  std::uint64_t activity = 0;  ///< scalar gate evals or word evals
  unsigned threads = 1;        ///< shards actually used (sharded runs)
  SimStats stats;              ///< per-engine breakdown (csim runs)
  /// Harness-side envelope: the whole-suite Run phase.  The tables' CPU
  /// column and the telemetry export both read this one accumulator.
  obs::PhaseTimers run_timers;
};

/// The paper's simulator variants (Table 3 columns).
enum class CsimVariant {
  Plain,  ///< csim: single lists, no macros
  V,      ///< csim-V: split visible/invisible lists
  M,      ///< csim-M: macro extraction
  MV,     ///< csim-MV: both
};

std::string variant_name(CsimVariant v);

/// Run a csim variant over a test suite (each sequence applied from the
/// reset state); for M/MV the macro extraction and fault mapping are built
/// inside and counted in memory, while the reported CPU time covers only
/// the simulation itself, matching the paper's focus.
RunResult run_csim(const Circuit& c, const FaultUniverse& u,
                   const TestSuite& t, CsimVariant variant,
                   Val ff_init = Val::X, bool drop_detected = true);

/// PROOFS-style baseline run.
RunResult run_proofs(const Circuit& c, const FaultUniverse& u,
                     const TestSuite& t, Val ff_init = Val::X);

/// Serial baseline run (ground truth; expensive).
RunResult run_serial(const Circuit& c, const FaultUniverse& u,
                     const TestSuite& t, Val ff_init = Val::X);

/// Transition-fault run (csim transition engine; no macros).
RunResult run_csim_transition(const Circuit& c, const FaultUniverse& u,
                              const TestSuite& t, Val ff_init = Val::X,
                              bool split_lists = true);

/// Sharded multi-threaded csim run: `num_threads` shard engines over one
/// shared SimModel (see sim/sharded_sim.h).  Detection status and coverage
/// are bit-for-bit identical to the single-threaded variant for any thread
/// count.  `trace`, when given, receives one Chrome-trace track per shard
/// (obs/trace.h) and must outlive the call;
/// `timeline`, when given, samples the run per vector (obs/timeline.h,
/// forcing the lockstep driver) and must outlive the call too.
/// `rebalance` configures dynamic ownership repartitioning
/// (sim/sharded_sim.h) -- bit-identical results for every policy.
RunResult run_csim_sharded(const Circuit& c, const FaultUniverse& u,
                           const TestSuite& t, CsimVariant variant,
                           unsigned num_threads, Val ff_init = Val::X,
                           bool drop_detected = true,
                           obs::TraceEmitter* trace = nullptr,
                           obs::Timeline* timeline = nullptr,
                           const RebalancePolicy& rebalance = {});

/// Sharded transition-fault run.
RunResult run_csim_transition_sharded(const Circuit& c,
                                      const FaultUniverse& u,
                                      const TestSuite& t,
                                      unsigned num_threads,
                                      Val ff_init = Val::X,
                                      bool split_lists = true,
                                      obs::TraceEmitter* trace = nullptr,
                                      obs::Timeline* timeline = nullptr,
                                      const RebalancePolicy& rebalance = {});

// Single-sequence conveniences.
inline RunResult run_csim(const Circuit& c, const FaultUniverse& u,
                          const PatternSet& p, CsimVariant variant,
                          Val ff_init = Val::X, bool drop_detected = true) {
  return run_csim(c, u, TestSuite(p), variant, ff_init, drop_detected);
}
inline RunResult run_proofs(const Circuit& c, const FaultUniverse& u,
                            const PatternSet& p, Val ff_init = Val::X) {
  return run_proofs(c, u, TestSuite(p), ff_init);
}
inline RunResult run_serial(const Circuit& c, const FaultUniverse& u,
                            const PatternSet& p, Val ff_init = Val::X) {
  return run_serial(c, u, TestSuite(p), ff_init);
}
inline RunResult run_csim_transition(const Circuit& c,
                                     const FaultUniverse& u,
                                     const PatternSet& p,
                                     Val ff_init = Val::X,
                                     bool split_lists = true) {
  return run_csim_transition(c, u, TestSuite(p), ff_init, split_lists);
}

}  // namespace cfs
