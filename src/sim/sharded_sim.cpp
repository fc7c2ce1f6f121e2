#include "sim/sharded_sim.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>

#include "util/error.h"
#include "util/pool.h"

namespace cfs {

namespace {

unsigned clamp_shards(unsigned num_threads, std::size_t num_faults) {
  unsigned k = num_threads == 0 ? 1 : num_threads;
  const std::size_t cap = num_faults == 0 ? 1 : num_faults;
  if (k > cap) k = static_cast<unsigned>(cap);
  return k;
}

}  // namespace

ShardedSim::ShardedSim(const Circuit& c, const FaultUniverse& u,
                       ShardedOptions opt, const MacroFaultMap* mmap)
    : ShardedSim(std::make_shared<SimModel>(c, u, mmap), opt) {}

ShardedSim::ShardedSim(std::shared_ptr<const SimModel> model,
                       ShardedOptions opt)
    : model_(std::move(model)),
      opt_(opt),
      part_(model_->num_faults(),
            clamp_shards(opt.num_threads, model_->num_faults())),
      pool_(part_.num_shards()),
      suspended_(std::move(opt_.suspended)) {
  const unsigned k = part_.num_shards();
  engines_.resize(k);
  shard_obs_.resize(k);
  // Shard construction includes the initial reset (a full good-machine
  // sweep plus fault activation), so build the engines in parallel too.
  pool_.parallel_for(k, [&](std::size_t s) {
    engines_[s] = make_shard_engine(static_cast<unsigned>(s));
  });
}

ShardedSim::~ShardedSim() {
  // Abandoned workers hold raw pointers into their graveyard engines, so
  // join every thread before the engines (members of the same structs)
  // destruct.  A stalled shard wakes up eventually; this is where we wait.
  for (Abandoned& a : graveyard_) {
    if (a.worker.joinable()) a.worker.join();
  }
}

CsimOptions ShardedSim::shard_csim_options(unsigned s) const {
  CsimOptions copt = opt_.csim;
  const unsigned k = part_.num_shards();
  // Each shard's element pool is pre-sized from its own slice of the
  // universe (+1 for the sentinel) unless the caller already gave a hint.
  if (copt.reserve_elements == 0) {
    copt.reserve_elements = part_.shard_size(s) + 1;
  }
  // The element budget is a universe-wide ceiling: divide it across the
  // shards (the floor of 2 keeps a degenerate split able to hold at least
  // one real element per shard).
  if (copt.max_elements != 0 && k > 1) {
    copt.max_elements = std::max<std::size_t>(copt.max_elements / k, 2);
  }
  return copt;
}

std::unique_ptr<ConcurrentSim> ShardedSim::make_shard_engine(
    unsigned s) const {
  const CsimOptions copt = shard_csim_options(s);
  const std::vector<std::uint8_t>* susp =
      suspended_.empty() ? nullptr : &suspended_;
  // A single shard covering the whole universe gets no partition filter at
  // all: ShardedSim with --threads 1 *is* plain ConcurrentSim.
  if (part_.num_shards() == 1) {
    return std::make_unique<ConcurrentSim>(model_, copt, nullptr, 0, susp);
  }
  return std::make_unique<ConcurrentSim>(model_, copt, &part_, s, susp);
}

void ShardedSim::reset(Val ff_init, bool clear_status) {
  pool_.parallel_for(engines_.size(), [&](std::size_t s) {
    engines_[s]->reset(ff_init, clear_status);
  });
  merged_dirty_ = true;
}

std::size_t ShardedSim::apply_vector(std::span<const Val> pi_vals) {
  // The containment path is incompatible with detection observers: an
  // abandoned worker could still be appending to its observation buffer
  // while the requeued attempt records into the same slot.
  if (opt_.resil.max_retries > 0 && !observer_) {
    return apply_vector_resilient(pi_vals);
  }
  const std::size_t k = engines_.size();
  const std::uint64_t vec_no = vec_base_ + vectors_applied_;
  const bool sampling = timeline_ != nullptr && timeline_->want(vec_no);
  const std::uint64_t started_us = sampling ? timeline_->now_us() : 0;
  std::vector<std::size_t> newly(k, 0);
  pool_.parallel_for(k, [&](std::size_t s) {
    shard_obs_[s].clear();
    const bool timing = trace_ != nullptr || sampling;
    const std::uint64_t t0 =
        timing ? (trace_ ? trace_->now_us() : timeline_->now_us()) : 0;
    if (opt_.resil.injector != nullptr) {
      opt_.resil.injector->maybe_fire(static_cast<unsigned>(s),
                                      vectors_applied_);
    }
    newly[s] = engines_[s]->apply_vector(pi_vals);
    const std::uint64_t t1 =
        timing ? (trace_ ? trace_->now_us() : timeline_->now_us()) : 0;
    if (sampling) shard_latency_us_[s] = t1 - t0;
    if (trace_) {
      const auto tid = static_cast<std::uint32_t>(s);
      trace_->complete(tid, "vector", t0, t1 - t0);
      if (newly[s] > 0) {
        trace_->instant(tid, "detect x" + std::to_string(newly[s]), t1);
      }
    }
  });
  ++vectors_applied_;
  merged_dirty_ = true;
  if (observer_) replay_observations();
  if (sampling) record_sample(vec_no, started_us);
  maybe_rebalance();
  std::size_t total = 0;
  for (std::size_t n : newly) total += n;  // shards are disjoint: exact sum
  return total;
}

std::size_t ShardedSim::apply_vector_resilient(std::span<const Val> pi_vals) {
  const std::size_t k = engines_.size();
  // Boundary state: what a failed or hung shard's retry restarts from.
  // Captured per shard so a retry only rebuilds the shard that failed.
  std::vector<RunStateSnapshot> snaps(k);
  std::vector<std::vector<Detect>> snap_status(k);
  for (std::size_t s = 0; s < k; ++s) {
    snaps[s] = engines_[s]->capture_run_state();
    snap_status[s] = engines_[s]->status();
  }
  // The vector outlives this call if a worker hangs, so the abandoned
  // thread must not read through the caller's span.
  const auto pis = std::make_shared<const std::vector<Val>>(pi_vals.begin(),
                                                            pi_vals.end());
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t completed = 0;
  };
  struct Task {
    ConcurrentSim* engine = nullptr;
    std::shared_ptr<const std::vector<Val>> pis;
    std::size_t newly = 0;
    std::uint64_t latency_us = 0;
    std::exception_ptr error;
    bool done = false;  // guarded by the round's Sync::mu
  };

  const std::uint64_t vec_no = vectors_applied_;
  const std::uint64_t sample_vec = vec_base_ + vectors_applied_;
  const bool sampling = timeline_ != nullptr && timeline_->want(sample_vec);
  const std::uint64_t started_us = sampling ? timeline_->now_us() : 0;
  std::vector<std::size_t> newly(k, 0);
  std::vector<std::size_t> pending(k);
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  for (unsigned round = 0;; ++round) {
    // Isolation boundary: one dedicated thread per pending shard (the
    // shared ThreadPool cannot abandon a hung task).  Each worker's result
    // lands in a shared_ptr'd Task so an abandoned worker scribbles on its
    // own orphaned state, never on the retry's.
    const auto sync = std::make_shared<Sync>();
    std::vector<std::shared_ptr<Task>> tasks(pending.size());
    std::vector<std::thread> threads(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const auto shard = static_cast<unsigned>(pending[i]);
      auto task = std::make_shared<Task>();
      task->engine = engines_[shard].get();
      task->pis = pis;
      tasks[i] = task;
      resil::FaultInjector* inj = opt_.resil.injector;
      threads[i] = std::thread([task, sync, inj, shard, vec_no] {
        const auto t0 = std::chrono::steady_clock::now();
        try {
          if (inj != nullptr) inj->maybe_fire(shard, vec_no);
          task->newly = task->engine->apply_vector(*task->pis);
        } catch (...) {
          task->error = std::current_exception();
        }
        task->latency_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        {
          std::lock_guard<std::mutex> lk(sync->mu);
          task->done = true;
          ++sync->completed;
        }
        sync->cv.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lk(sync->mu);
      const auto all_done = [&] { return sync->completed == tasks.size(); };
      if (opt_.resil.deadline_ms == 0) {
        sync->cv.wait(lk, all_done);
      } else {
        sync->cv.wait_for(lk,
                          std::chrono::milliseconds(opt_.resil.deadline_ms),
                          all_done);
      }
    }

    std::vector<std::size_t> failed;
    std::exception_ptr budget_error;
    std::exception_ptr last_error;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const std::size_t s = pending[i];
      bool done;
      {
        std::lock_guard<std::mutex> lk(sync->mu);
        done = tasks[i]->done;
      }
      if (!done) {
        // Hung past the deadline: abandon worker and engine (parked until
        // destruction -- the thread is still executing inside the engine)
        // and requeue the shard's slice on a rebuilt engine.
        graveyard_.push_back(
            Abandoned{std::move(engines_[s]), std::move(threads[i])});
        engines_[s] = make_shard_engine(static_cast<unsigned>(s));
        engines_[s]->restore_run_state(snaps[s], snap_status[s]);
        ++shard_requeues_;
        ++shard_retries_;
        if (trace_) {
          trace_->instant(driver_tid(),
                          "requeue shard " + std::to_string(s),
                          trace_->now_us());
        }
        failed.push_back(s);
        continue;
      }
      threads[i].join();
      if (!tasks[i]->error) {
        newly[s] = tasks[i]->newly;
        if (sampling) shard_latency_us_[s] = tasks[i]->latency_us;
        continue;
      }
      bool is_budget = false;
      try {
        std::rethrow_exception(tasks[i]->error);
      } catch (const PoolBudgetError&) {
        is_budget = true;
        budget_error = tasks[i]->error;
      } catch (...) {
        last_error = tasks[i]->error;
      }
      if (is_budget) continue;  // not retryable: same budget, same throw
      // The engine may be a half-merged wreck; restore_run_state rebuilds
      // it from the boundary wholesale.
      engines_[s]->restore_run_state(snaps[s], snap_status[s]);
      ++shard_retries_;
      if (trace_) {
        trace_->instant(driver_tid(), "retry shard " + std::to_string(s),
                        trace_->now_us());
      }
      failed.push_back(s);
    }

    if (budget_error) {
      // Memory-budget overflow is the campaign's to handle (suspend part of
      // the universe, restore, go multi-pass); retrying here cannot help.
      merged_dirty_ = true;
      std::rethrow_exception(budget_error);
    }
    if (failed.empty()) break;
    if (round >= opt_.resil.max_retries) {
      merged_dirty_ = true;
      if (last_error) std::rethrow_exception(last_error);
      throw Error("shard deadline exceeded " +
                  std::to_string(opt_.resil.max_retries + 1) +
                  " times; giving up on vector " + std::to_string(vec_no));
    }
    // Exponential backoff before the retry round.
    const std::uint64_t ms = std::uint64_t{opt_.resil.backoff_ms}
                             << std::min(round, 20u);
    if (ms != 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    pending = std::move(failed);
  }

  ++vectors_applied_;
  merged_dirty_ = true;
  if (sampling) record_sample(sample_vec, started_us);
  maybe_rebalance();
  std::size_t total = 0;
  for (std::size_t n : newly) total += n;  // shards are disjoint: exact sum
  return total;
}

void ShardedSim::run(const TestSuite& t, Val ff_init) {
  const bool rebalancing = opt_.rebalance.mode != RebalancePolicy::Mode::Off &&
                           num_shards() > 1;
  if (observer_ || opt_.resil.max_retries > 0 || timeline_ != nullptr ||
      rebalancing) {
    // Lockstep keeps the observer callback order identical to a
    // single-threaded run, gives the containment path its per-vector retry
    // boundary, and gives the timeline sampler and the rebalancer their
    // per-vector boundaries (the coarse path has no driver-visible vector
    // boundary to repartition at).
    for (const PatternSet& seq : t.sequences()) {
      reset(ff_init);
      for (std::size_t i = 0; i < seq.size(); ++i) apply_vector(seq[i]);
    }
    return;
  }
  // Coarse grain: each shard streams the whole suite independently; one
  // fork-join for the entire run.
  pool_.parallel_for(engines_.size(), [&](std::size_t s) {
    ConcurrentSim& sim = *engines_[s];
    const auto tid = static_cast<std::uint32_t>(s);
    std::size_t seq_no = 0;
    for (const PatternSet& seq : t.sequences()) {
      const std::uint64_t t0 = trace_ ? trace_->now_us() : 0;
      std::size_t newly = 0;
      sim.reset(ff_init);
      for (std::size_t i = 0; i < seq.size(); ++i) {
        newly += sim.apply_vector(seq[i]);
      }
      if (trace_) {
        const std::uint64_t t1 = trace_->now_us();
        trace_->complete(tid, "sequence " + std::to_string(seq_no), t0,
                         t1 - t0);
        if (newly > 0) {
          trace_->instant(tid, "detect x" + std::to_string(newly), t1);
        }
      }
      ++seq_no;
    }
  });
  merged_dirty_ = true;
}

const std::vector<Detect>& ShardedSim::status() const {
  if (merged_dirty_) {
    obs::ScopedPhase sp(driver_timers_, obs::Phase::ShardMerge);
    const std::uint64_t t0 = trace_ ? trace_->now_us() : 0;
    if (engines_.size() == 1) {
      merged_ = engines_[0]->status();
    } else {
      std::vector<const std::vector<Detect>*> per;
      per.reserve(engines_.size());
      for (const auto& e : engines_) per.push_back(&e->status());
      merged_ = part_.merge(per);
    }
    merged_dirty_ = false;
    if (trace_) {
      trace_->complete(driver_tid(), "merge", t0, trace_->now_us() - t0);
    }
  }
  return merged_;
}

RunStateSnapshot ShardedSim::capture_run_state() const {
  if (engines_.size() == 1) return engines_[0]->capture_run_state();
  std::vector<RunStateSnapshot> per(engines_.size());
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    per[s] = engines_[s]->capture_run_state();
  }
  RunStateSnapshot out;
  // Every shard simulates the same good machine; take shard 0's copy.
  out.flop_good = per[0].flop_good;
  out.flop_faulty.resize(per[0].flop_faulty.size());
  for (std::size_t d = 0; d < out.flop_faulty.size(); ++d) {
    auto& merged = out.flop_faulty[d];
    for (const RunStateSnapshot& p : per) {
      merged.insert(merged.end(), p.flop_faulty[d].begin(),
                    p.flop_faulty[d].end());
    }
    // Shards own disjoint fault sets, so this is a merge, not a dedup.
    std::sort(merged.begin(), merged.end(),
              [](const FlopFault& a, const FlopFault& b) {
                return a.fault < b.fault;
              });
  }
  if (!per[0].prev_pins.empty()) {
    // Each engine only maintains previous values for the faults it owns;
    // read every fault's entry from its owner shard.
    out.prev_pins.resize(per[0].prev_pins.size());
    for (std::size_t id = 0; id < out.prev_pins.size(); ++id) {
      out.prev_pins[id] =
          per[part_.shard_of(static_cast<std::uint32_t>(id))].prev_pins[id];
    }
  }
  return out;
}

void ShardedSim::restore_run_state(const RunStateSnapshot& s,
                                   const std::vector<Detect>& status) {
  pool_.parallel_for(engines_.size(), [&](std::size_t i) {
    engines_[i]->restore_run_state(s, status);
  });
  merged_dirty_ = true;
}

double ShardedSim::imbalance_ratio() const {
  std::uint64_t total = 0, heaviest = 0;
  for (const auto& e : engines_) {
    const std::uint64_t le = e->live_elements();
    total += le;
    heaviest = std::max(heaviest, le);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(heaviest) * engines_.size() /
         static_cast<double>(total);
}

void ShardedSim::maybe_rebalance() {
  if (engines_.size() <= 1) return;
  const RebalancePolicy& rp = opt_.rebalance;
  switch (rp.mode) {
    case RebalancePolicy::Mode::Off:
      return;
    case RebalancePolicy::Mode::Every:
      if (rp.every == 0 || vectors_applied_ % rp.every != 0) return;
      break;
    case RebalancePolicy::Mode::Auto:
      if (vectors_applied_ - last_rebalance_vec_ < rp.cooldown) return;
      if (imbalance_ratio() < rp.threshold) return;
      break;
  }
  rebalance_now();
}

std::size_t ShardedSim::rebalance_now() {
  const std::size_t k = engines_.size();
  if (k <= 1) return 0;
  obs::ScopedPhase sp(driver_timers_, obs::Phase::Rebalance);
  const std::uint64_t t0 = trace_ ? trace_->now_us() : 0;
  const std::size_t nf = part_.num_faults();

  // Snapshot under the *old* ownership: capture_run_state reads each
  // fault's entry from its owner shard, so it must run before the
  // partition changes.  status() is cached; copy it out because restore
  // invalidates the merge.
  RunStateSnapshot snap = capture_run_state();
  const std::vector<Detect> master = status();

  // Per-fault live-element counts are partition-invariant: each engine
  // contributes the elements of the faults it owns, and a fault's list
  // structure does not depend on which shard simulates it.
  std::vector<std::uint64_t> elems(nf, 0);
  for (const auto& e : engines_) e->accumulate_live_weights(elems);

  // Pack on element counts, but give every live fault a floor of one unit:
  // a currently element-free live fault still costs its share of future
  // activations, and the floor keeps the fault *counts* from collapsing
  // onto one shard when most weights are zero.
  std::vector<std::uint64_t> weights = elems;
  for (std::uint32_t id = 0; id < nf; ++id) {
    const bool parked = !suspended_.empty() && suspended_[id];
    if (master[id] != Detect::Hard && !parked) {
      weights[id] = std::max<std::uint64_t>(weights[id], 1);
    }
  }

  std::vector<std::uint32_t> old_owner(nf);
  for (std::uint32_t id = 0; id < nf; ++id) old_owner[id] = part_.shard_of(id);
  const std::size_t moved = part_.partition_by_weight(weights);
  std::uint64_t moved_elems = 0;
  for (std::uint32_t id = 0; id < nf; ++id) {
    if (part_.shard_of(id) != old_owner[id]) moved_elems += elems[id];
  }

  // Point every engine at its new slice (ownership base first, then the
  // suspension overlay on top), grow its pool to the new share, and
  // rebuild from the snapshot.  restore_run_state re-derives the lists
  // under the new masks, so the run continues bit-identically.
  for (std::size_t s = 0; s < k; ++s) {
    engines_[s]->set_shard(part_, static_cast<unsigned>(s));
    engines_[s]->set_suspended(suspended_);
    engines_[s]->reserve_elements(part_.shard_size(s) + 1);
  }
  restore_run_state(snap, master);

  ++rebalances_;
  faults_migrated_ += moved;
  elements_migrated_ += moved_elems;
  last_rebalance_vec_ = vectors_applied_;
  CFS_COUNT(rebalance_counters_, Rebalances);
  CFS_COUNT_N(rebalance_counters_, FaultsMigrated, moved);
  CFS_COUNT_N(rebalance_counters_, ElementsMigrated, moved_elems);
  if (trace_ != nullptr) {
    trace_->complete(driver_tid(), "rebalance", t0, trace_->now_us() - t0);
    trace_->instant(driver_tid(),
                    "rebalance: " + std::to_string(moved) + " faults, " +
                        std::to_string(moved_elems) + " elements",
                    trace_->now_us());
  }
  return moved;
}

void ShardedSim::set_suspended(const std::vector<std::uint8_t>& suspended) {
  suspended_ = suspended;
  for (auto& e : engines_) e->set_suspended(suspended);
}

void ShardedSim::adopt_status(const std::vector<Detect>& status) {
  for (auto& e : engines_) e->adopt_status(status);
  merged_dirty_ = true;
}

void ShardedSim::reset_peak_elements() {
  for (auto& e : engines_) e->reset_peak_elements();
}

void ShardedSim::set_trace(obs::TraceEmitter* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    for (std::size_t s = 0; s < engines_.size(); ++s) {
      trace_->name_track(static_cast<std::uint32_t>(s),
                         "shard " + std::to_string(s));
    }
    trace_->name_track(driver_tid(), "driver");
  }
}

void ShardedSim::set_timeline(obs::Timeline* timeline,
                              std::uint64_t vec_base) {
  timeline_ = timeline;
  vec_base_ = vec_base;
  if (timeline_ != nullptr) {
    timeline_->set_num_shards(num_shards());
    shard_latency_us_.assign(engines_.size(), 0);
    sample_scratch_.shards.resize(engines_.size());
  }
}

void ShardedSim::record_sample(std::uint64_t vec_no,
                               std::uint64_t started_us) {
  obs::TimelineSample& s = sample_scratch_;
  s.vec = vec_no;
  // Deterministic section: read the merged master status -- each fault's
  // verdict comes from its owner shard, so these values are bit-identical
  // for any --threads/--rebalance combination (and need no counters, so they
  // survive CFS_OBS=OFF builds).
  const std::vector<Detect>& st = status();
  for (obs::ShardSample& sh : s.shards) sh.live_faults = 0;
  std::uint64_t hard = 0, potential = 0;
  for (std::uint32_t id = 0; id < st.size(); ++id) {
    if (st[id] == Detect::Hard) {
      ++hard;
    } else {
      ++s.shards[part_.shard_of(id)].live_faults;
      if (st[id] == Detect::Potential) ++potential;
    }
  }
  s.hard = hard;
  s.potential = potential;
  s.live_faults = st.size() - hard;
  // Work + wall sections: machine effort and timing, shard-dependent.
  std::uint64_t dropped = 0, live_el = 0, trav = 0, gates = 0;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    const ConcurrentSim& e = *engines_[i];
    dropped += e.faults_dropped();
    const std::uint64_t le = e.live_elements();
    s.shards[i].live_elements = le;
    s.shards[i].latency_us = shard_latency_us_[i];
    live_el += le;
    trav += e.counters().get(obs::Counter::ElementsTraversed);
    gates += e.gates_processed();
  }
  s.dropped = dropped;
  s.live_elements = live_el;
  s.traversals = trav;
  s.gates = gates;
  s.rebalances = rebalances_;
  s.t_us = timeline_->now_us();
  s.latency_us = s.t_us >= started_us ? s.t_us - started_us : 0;
  timeline_->record(s);
  if (trace_ != nullptr) {
    // Counter tracks: area charts of the drain, alongside the slices.
    const std::uint64_t ts = trace_->now_us();
    trace_->counter(driver_tid(), "detections", ts,
                    {{"hard", hard}, {"potential", potential}});
    trace_->counter(driver_tid(), "pool", ts,
                    {{"live_elements", live_el}});
    for (std::size_t i = 0; i < s.shards.size(); ++i) {
      trace_->counter(static_cast<std::uint32_t>(i), "load", ts,
                      {{"live_faults", s.shards[i].live_faults},
                       {"live_elements", s.shards[i].live_elements}});
    }
  }
}

void ShardedSim::set_detection_observer(ConcurrentSim::DetectionObserver obs) {
  observer_ = std::move(obs);
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    if (observer_) {
      auto* buf = &shard_obs_[s];
      engines_[s]->set_detection_observer(
          [buf](std::uint32_t fault, std::uint32_t po, bool hard) {
            buf->push_back({po, fault, hard});
          });
    } else {
      engines_[s]->set_detection_observer(nullptr);
    }
  }
}

void ShardedSim::replay_observations() {
  obs::ScopedPhase sp(driver_timers_, obs::Phase::ShardMerge);
  // Each shard records in (po asc, fault asc) order; the sorted union is
  // exactly the sequence one engine over the whole universe produces.
  std::vector<Observation> all;
  std::size_t n = 0;
  for (const auto& v : shard_obs_) n += v.size();
  all.reserve(n);
  for (const auto& v : shard_obs_) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(),
            [](const Observation& a, const Observation& b) {
              return a.po != b.po ? a.po < b.po : a.fault < b.fault;
            });
  for (const Observation& o : all) observer_(o.fault, o.po, o.hard);
}

SimStats ShardedSim::stats() const {
  SimStats st;
  st.model_bytes = model_->bytes();
  st.circuit_bytes = model_->circuit().bytes();
  st.driver = driver_timers_;
  st.shard_retries = shard_retries_;
  st.shard_requeues = shard_requeues_;
  st.rebalances = rebalances_;
  st.faults_migrated = faults_migrated_;
  st.elements_migrated = elements_migrated_;
  st.per_engine.reserve(engines_.size());
  for (const auto& e : engines_) {
    EngineStats es;
    es.gates_processed = e->gates_processed();
    es.elements_evaluated = e->elements_evaluated();
    es.vectors_simulated = e->vectors_simulated();
    es.faults_dropped = e->faults_dropped();
    es.peak_elements = e->peak_elements();
    es.state_bytes = e->state_bytes();
    es.counters = e->counters();
    es.timers = e->timers();
    es.hists = e->histograms();
    es.levels = e->level_profile();
    st.total.accumulate(es);
    st.per_engine.push_back(std::move(es));
  }
  // Driver-side rebalance telemetry has no owning engine: it appears in
  // the totals only.
  st.total.counters.merge(rebalance_counters_);
  return st;
}

std::size_t ShardedSim::bytes() const {
  std::size_t b = model_->bytes();
  for (const auto& e : engines_) b += e->state_bytes();
  return b;
}

void ShardedSim::report_memory(MemStats& ms) const {
  std::size_t pool = 0, fixed = 0;
  for (const auto& e : engines_) {
    pool += e->pool_bytes();
    fixed += e->state_bytes() - e->pool_bytes();
  }
  ms.sample("fault_elements", pool);
  ms.sample("engine_fixed", fixed);
  ms.sample("model", model_->bytes());
  ms.sample("circuit", model_->circuit().bytes());
}

}  // namespace cfs
