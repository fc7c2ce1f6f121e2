// Phase timers: where the CPU seconds of the paper's tables actually go.
//
// A `PhaseTimers` block accumulates wall-clock nanoseconds and call counts
// per simulation phase -- good-machine evaluation, fault-list propagation,
// the PO sampling / drop pass, state clocking, the sharded driver's merge,
// and the harness's whole-run envelope.  Engines time their phases through
// the CFS_PHASE macro, which the CFS_OBS=OFF build compiles away entirely;
// the harness uses ScopedPhase directly (a few clock reads per suite), so
// run tables keep their CPU column in either build.
//
// Per-batch accumulation: PhaseTimers is a plain value -- snapshot it
// before a vector batch and subtract (`minus`) after to get the batch's
// share.  Totals are monotone: every add() grows both the time and the
// call count of its phase.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/counters.h"  // CFS_OBS_ENABLED

namespace cfs::obs {

enum class Phase : unsigned {
  GoodEval,    ///< good-machine sweeps (reset consistency pass)
  FaultProp,   ///< event-driven settling: merges + fault-list propagation
  DropPass,    ///< PO sampling, detection bookkeeping, lazy drop unlinking
  Clocking,    ///< flip-flop capture and master commit (no propagation:
               ///< the next vector's FaultProp settle drains Q's fanouts)
  ShardMerge,  ///< merging shard verdicts / replaying observations
  Rebalance,   ///< dynamic repartition: capture + LPT pack + restore (driver)
  Run,         ///< whole-suite envelope (the tables' CPU column)
  kCount
};

inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kCount);

constexpr std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::GoodEval: return "good_eval";
    case Phase::FaultProp: return "fault_prop";
    case Phase::DropPass: return "drop_pass";
    case Phase::Clocking: return "clocking";
    case Phase::ShardMerge: return "shard_merge";
    case Phase::Rebalance: return "rebalance";
    case Phase::Run: return "run";
    case Phase::kCount: break;
  }
  return "?";
}

struct PhaseTimers {
  std::array<std::uint64_t, kNumPhases> ns{};
  std::array<std::uint64_t, kNumPhases> calls{};

  void add(Phase p, std::uint64_t nanos) {
    ns[static_cast<std::size_t>(p)] += nanos;
    calls[static_cast<std::size_t>(p)] += 1;
  }
  std::uint64_t nanos(Phase p) const {
    return ns[static_cast<std::size_t>(p)];
  }
  std::uint64_t count(Phase p) const {
    return calls[static_cast<std::size_t>(p)];
  }
  double seconds(Phase p) const {
    return static_cast<double>(nanos(p)) * 1e-9;
  }
  /// Sum over all phases except the Run envelope (which contains them).
  std::uint64_t total_phase_nanos() const {
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      if (static_cast<Phase>(i) != Phase::Run) t += ns[i];
    }
    return t;
  }
  void merge(const PhaseTimers& o) {
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      ns[i] += o.ns[i];
      calls[i] += o.calls[i];
    }
  }
  /// Per-batch delta: *this must have been accumulated from `earlier`.
  PhaseTimers minus(const PhaseTimers& earlier) const {
    PhaseTimers d;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      d.ns[i] = ns[i] - earlier.ns[i];
      d.calls[i] = calls[i] - earlier.calls[i];
    }
    return d;
  }
  void reset() {
    ns.fill(0);
    calls.fill(0);
  }
  bool operator==(const PhaseTimers&) const = default;
};

/// RAII phase scope: accumulates the enclosed wall time into one phase.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimers& t, Phase p)
      : t_(t), p_(p), start_(std::chrono::steady_clock::now()) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    const auto d = std::chrono::steady_clock::now() - start_;
    t_.add(p_, static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                       .count()));
  }

 private:
  PhaseTimers& t_;
  Phase p_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cfs::obs

// Engine-internal phase scope, compiled away with the counters.
#if CFS_OBS_ENABLED
#define CFS_PHASE(timers, which) \
  ::cfs::obs::ScopedPhase cfs_phase_scope_##which((timers), \
                                                  ::cfs::obs::Phase::which)
#else
#define CFS_PHASE(timers, which) ((void)0)
#endif
