// Sharded multi-threaded concurrent fault simulation.
//
// The fault universe is an embarrassingly parallel axis: once the good
// machine is fixed, faulty machines never interact.  ShardedSim partitions
// the universe into K balanced shards (faults/partition.h), runs one
// ConcurrentSim per shard over the *same* test-vector stream on a fork-join
// thread pool, and merges the shard-local detection arrays
// deterministically -- each fault's verdict is read from its owner shard, so
// results are bit-for-bit identical for any thread count, including 1.
//
// All shards share one immutable SimModel (core/sim_model.h); only run
// state (fault lists, pool, good machine, queue) is per shard, so every
// shard re-simulates the same good machine alongside its faults.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/concurrent_sim.h"
#include "core/run_state.h"
#include "core/sim_model.h"
#include "faults/partition.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/timeline.h"
#include "obs/timers.h"
#include "obs/trace.h"
#include "patterns/pattern.h"
#include "resil/containment.h"
#include "util/memtrack.h"
#include "util/thread_pool.h"

namespace cfs {

/// When and how to repartition fault ownership mid-run.  Rebalancing only
/// moves faults between shards -- each fault's simulation is independent of
/// its shard, so the merged status, detection order, campaign digest, and
/// deterministic counters are bit-identical for every policy; only the
/// work/wall telemetry changes.
struct RebalancePolicy {
  enum class Mode {
    Off,   ///< static round-robin partition for the whole run
    Auto,  ///< repartition when live-element imbalance crosses `threshold`
    Every  ///< repartition unconditionally every `every` vectors
  };
  Mode mode = Mode::Off;
  /// Auto: minimum ratio of (heaviest shard's live elements) to the
  /// balanced share before a repartition fires.  1.0 fires on any skew.
  double threshold = 1.25;
  /// Auto: vectors to wait after a rebalance before considering another
  /// (a repartition costs roughly one capture + restore; let it pay off).
  std::uint64_t cooldown = 8;
  /// Every: period in vectors (>= 1).
  std::uint64_t every = 16;
};

/// Largest accepted worker-thread count.  Both front ends (cfs --threads,
/// cfsd open) reject anything outside 1..kMaxThreads before it reaches
/// ShardedOptions.
inline constexpr unsigned kMaxThreads = 64;

struct ShardedOptions {
  /// Worker threads; the universe is split into the same number of shards
  /// (clamped to the number of faults).  1 reproduces plain ConcurrentSim
  /// with no thread machinery at all.
  unsigned num_threads = 1;
  /// Per-shard engine configuration.  A csim.max_elements budget is the
  /// budget for the *whole* universe: it is divided across the shards.
  CsimOptions csim;
  /// Shard failure containment (resil/containment.h).  Off by default.
  resil::ResilOptions resil;
  /// Dynamic shard rebalancing (no-op with a single shard).  At the end of
  /// a vector, when the policy triggers, the driver captures the merged
  /// boundary snapshot, repartitions ownership by live-element weight
  /// (greedy LPT), and restores every shard -- same machinery as a
  /// checkpoint restore, so the run continues bit-identically.
  RebalancePolicy rebalance;
  /// Initial suspension mask (size num_faults, or empty): marked faults are
  /// excluded from simulation until set_suspended()/restore_run_state()
  /// changes the overlay.  The memory-budget multi-pass path constructs
  /// later passes through this so even the engines' *initial* activation
  /// stays within budget.
  std::vector<std::uint8_t> suspended;
};

/// Activity and footprint of one shard engine.
struct EngineStats {
  std::uint64_t gates_processed = 0;
  std::uint64_t elements_evaluated = 0;
  std::uint64_t vectors_simulated = 0;
  std::uint64_t faults_dropped = 0;
  std::size_t peak_elements = 0;
  std::size_t state_bytes = 0;
  obs::Counters counters;    ///< telemetry registry (obs/counters.h)
  obs::PhaseTimers timers;   ///< per-phase wall time (obs/timers.h)
  obs::HistogramSet hists;   ///< work distributions (obs/histogram.h)
  obs::LevelProfile levels;  ///< per-level attribution (obs/histogram.h)

  /// Field-wise accumulation (counters, timers, histograms, and level
  /// profiles merge element-wise).
  void accumulate(const EngineStats& o) {
    gates_processed += o.gates_processed;
    elements_evaluated += o.elements_evaluated;
    vectors_simulated += o.vectors_simulated;
    faults_dropped += o.faults_dropped;
    peak_elements += o.peak_elements;
    state_bytes += o.state_bytes;
    counters.merge(o.counters);
    timers.merge(o.timers);
    hists.merge(o.hists);
    levels.merge(o.levels);
  }
};

/// Unified statistics over a sharded run: per-engine numbers plus their
/// sums and the shared (counted-once) model and circuit footprints.
struct SimStats {
  std::vector<EngineStats> per_engine;
  EngineStats total;  ///< field-wise sum over per_engine
  /// Driver-side phases (shard merge, observation replay) -- work outside
  /// any single engine, so kept out of `total`.
  obs::PhaseTimers driver;
  std::size_t model_bytes = 0;
  std::size_t circuit_bytes = 0;
  /// Containment counters: shard vector attempts that were retried after an
  /// exception or a deadline expiry, and the subset where a hung shard's
  /// slice was requeued onto a rebuilt engine.  Zero with containment off.
  std::uint64_t shard_retries = 0;
  std::uint64_t shard_requeues = 0;
  /// Dynamic-rebalancing counters: repartitions performed, faults whose
  /// owner shard changed, and the live elements those faults carried at
  /// migration time.  Zero with rebalancing off (or one shard).
  std::uint64_t rebalances = 0;
  std::uint64_t faults_migrated = 0;
  std::uint64_t elements_migrated = 0;
};

class ShardedSim {
 public:
  /// Convenience: builds the SimModel internally.  The caller keeps `c`,
  /// `u`, and `mmap` alive for the simulator's lifetime.
  ShardedSim(const Circuit& c, const FaultUniverse& u,
             ShardedOptions opt = {}, const MacroFaultMap* mmap = nullptr);

  /// Share an existing model across this simulator's shards (and any other
  /// engines the caller runs over it).
  explicit ShardedSim(std::shared_ptr<const SimModel> model,
                      ShardedOptions opt = {});

  /// Joins any worker threads abandoned by the deadline watchdog.
  ~ShardedSim();

  const SimModel& model() const { return *model_; }
  const FaultPartition& partition() const { return part_; }
  unsigned num_shards() const {
    return static_cast<unsigned>(engines_.size());
  }
  /// Shard engine `s` (tests and diagnostics).
  const ConcurrentSim& engine(unsigned s) const { return *engines_[s]; }

  /// Reinitialise every shard (in parallel).  Detection status is preserved
  /// unless `clear_status`.
  void reset(Val ff_init = Val::X, bool clear_status = false);

  /// Simulate one vector on all shards (fork-join) and return the number of
  /// newly hard-detected faults across the universe.  If a detection
  /// observer is set, the merged PO-mismatch observations are replayed in
  /// (PO position, fault id) order -- exactly the order a single
  /// ConcurrentSim emits them in.
  std::size_t apply_vector(std::span<const Val> pi_vals);

  /// Simulate a whole suite: one reset per sequence, vectors in order.
  /// Without an observer, timeline, rebalancing, or containment, each shard
  /// runs the entire suite independently (coarse-grained, one fork-join
  /// total); otherwise the vectors run in lockstep through apply_vector()
  /// so callbacks stay ordered and the driver sees every vector boundary.
  /// Every path yields the same merged status, detection order, and
  /// deterministic counters.
  void run(const TestSuite& t, Val ff_init = Val::X);

  // -- results ------------------------------------------------------------
  /// Merged detection status over the full universe (deterministic: each
  /// fault from its owner shard).
  const std::vector<Detect>& status() const;
  Coverage coverage() const { return summarize(status()); }

  void set_detection_observer(ConcurrentSim::DetectionObserver obs);

  // -- resilience (resil/campaign.h drives these) --------------------------

  /// Merged boundary snapshot over the whole universe: per-shard captures
  /// combined by ascending fault id.  Shard-count-agnostic -- a snapshot
  /// captured here restores into a ShardedSim with any other shard count.
  RunStateSnapshot capture_run_state() const;

  /// Restore every shard from a (whole-universe) snapshot and master status
  /// table; each engine keeps only the faults it owns and is not suspended.
  void restore_run_state(const RunStateSnapshot& s,
                         const std::vector<Detect>& status);

  /// Replace the suspension overlay on every shard (takes effect at the
  /// next restore_run_state()/reset()); replacement engines built by the
  /// containment path inherit it.
  void set_suspended(const std::vector<std::uint8_t>& suspended);

  /// Push a master detection-status table into every shard ahead of a
  /// reset(): freshly built engines (campaign resume at a sequence
  /// boundary) must know which faults are already hard-detected so
  /// dropping keeps them out of the rebuilt lists.
  void adopt_status(const std::vector<Detect>& status);

  /// Start a fresh element-pool high-water epoch on every shard.
  void reset_peak_elements();

  /// Containment counters (see SimStats).
  std::uint64_t shard_retries() const { return shard_retries_; }
  std::uint64_t shard_requeues() const { return shard_requeues_; }

  // -- dynamic rebalancing --------------------------------------------------

  /// Repartition fault ownership by live-element weight right now: capture
  /// the merged boundary snapshot, LPT-pack the per-fault live-element
  /// counts into num_shards() bins, refresh every engine's ownership mask
  /// (suspension overlay reapplied), and restore.  Must be called at a
  /// vector boundary.  No-op (returns 0) with a single shard.  Returns the
  /// number of faults migrated.  The policy calls this automatically; it is
  /// public for tests and explicit schedules.
  std::size_t rebalance_now();

  /// Live-element imbalance across shards right now: heaviest shard over
  /// the balanced share (1.0 = even, num_shards() = one shard carries
  /// everything).  The quantity RebalancePolicy::threshold tests.
  double imbalance_ratio() const;

  /// Rebalancing counters (see SimStats).
  std::uint64_t rebalances() const { return rebalances_; }
  std::uint64_t faults_migrated() const { return faults_migrated_; }
  std::uint64_t elements_migrated() const { return elements_migrated_; }

  // -- telemetry -----------------------------------------------------------
  /// Attach a Chrome-trace emitter (obs/trace.h): one track per shard
  /// records a slice per vector (lockstep) or per sequence (coarse run),
  /// with instant markers on fault detections; a driver track records the
  /// merge.  Pass nullptr to detach.  The emitter must outlive the runs it
  /// observes.
  void set_trace(obs::TraceEmitter* trace);

  /// Attach a time-series sampler (obs/timeline.h): every wanted vector
  /// records one sample -- merged detections, per-shard live-fault weight
  /// and apply_vector latency, pool population, counter totals.  The
  /// timeline's shard width is fixed here.  `vec_base` offsets the sample
  /// vector coordinate (a resumed campaign continues its suite position).
  /// Sampling forces run() onto the lockstep path so every vector is a
  /// sample point.  Pass nullptr to detach.  The timeline must outlive the
  /// runs it observes.
  void set_timeline(obs::Timeline* timeline, std::uint64_t vec_base = 0);
  obs::Timeline* timeline() const { return timeline_; }

  // -- statistics ----------------------------------------------------------
  SimStats stats() const;
  /// Total footprint: every shard's run state plus the shared model once.
  std::size_t bytes() const;
  /// Aggregated memory table: pool and fixed run-state bytes summed across
  /// shards, model and circuit counted once.
  void report_memory(MemStats& ms) const;

 private:
  void replay_observations();
  /// tid of the driver track (one past the shard tracks).
  std::uint32_t driver_tid() const {
    return static_cast<std::uint32_t>(engines_.size());
  }
  /// Per-shard engine options: default pool pre-size from the shard's slice,
  /// universe-wide element budget divided across the shards.
  CsimOptions shard_csim_options(unsigned s) const;
  /// Build (or rebuild, on the containment path) shard `s`'s engine with the
  /// current suspension overlay.
  std::unique_ptr<ConcurrentSim> make_shard_engine(unsigned s) const;
  /// The containment path: isolation boundary + watchdog + bounded requeue.
  std::size_t apply_vector_resilient(std::span<const Val> pi_vals);
  /// Assemble and record one timeline sample for the vector that just
  /// completed (driver thread; merged status is the deterministic source).
  void record_sample(std::uint64_t vec_no, std::uint64_t started_us);
  /// End-of-vector policy check: rebalance_now() when the configured
  /// trigger (auto threshold + cooldown, or every-N) fires.
  void maybe_rebalance();

  std::shared_ptr<const SimModel> model_;
  ShardedOptions opt_;
  FaultPartition part_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<ConcurrentSim>> engines_;

  // Current suspension overlay (mirrors what every engine was last given).
  std::vector<std::uint8_t> suspended_;
  // Driver-level vector counter: the `vector` coordinate injection specs
  // address, and the campaign's notion of progress.
  std::uint64_t vectors_applied_ = 0;
  std::uint64_t shard_retries_ = 0;
  std::uint64_t shard_requeues_ = 0;
  // Dynamic-rebalancing counters and the auto policy's cooldown anchor.
  std::uint64_t rebalances_ = 0;
  std::uint64_t faults_migrated_ = 0;
  std::uint64_t elements_migrated_ = 0;
  std::uint64_t last_rebalance_vec_ = 0;
  // A hung shard's abandoned worker and engine: the thread still runs (or
  // sleeps) inside the engine, so both stay alive, parked here, until the
  // destructor joins them.
  struct Abandoned {
    std::unique_ptr<ConcurrentSim> engine;
    std::thread worker;
  };
  std::vector<Abandoned> graveyard_;

  ConcurrentSim::DetectionObserver observer_;
  struct Observation {
    std::uint32_t po;
    std::uint32_t fault;
    bool hard;
  };
  std::vector<std::vector<Observation>> shard_obs_;  // per shard, per vector

  obs::TraceEmitter* trace_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  std::uint64_t vec_base_ = 0;
  // Per-shard apply_vector wall time of the last sampled vector, and a
  // preallocated sample the driver refills (no allocation per sample).
  std::vector<std::uint64_t> shard_latency_us_;
  obs::TimelineSample sample_scratch_;
  // Merge/replay happen in const accessors; the timers still record them.
  mutable obs::PhaseTimers driver_timers_;
  // Driver-side telemetry: the rebalance counters, merged into
  // stats().total (no engine owns them).
  obs::Counters rebalance_counters_;

  mutable std::vector<Detect> merged_;
  mutable bool merged_dirty_ = true;
};

}  // namespace cfs
