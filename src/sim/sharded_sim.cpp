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
  steps_.reserve(kMaxEpochVectors + 1);
  logs_.resize(k);
  for (ShardLog& l : logs_) l.records.resize(kMaxEpochVectors);
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
  steps_.clear();
  steps_.push_back(Step{pi_vals});
  return run_epoch(Val::X);
}

void ShardedSim::run(const TestSuite& t, Val ff_init) {
  const std::vector<PatternSet>& seqs = t.sequences();
  std::size_t sq = 0, off = 0;  // cursor: the next vector is seqs[sq][off]
  while (sq < seqs.size()) {
    const std::size_t n = epoch_vectors();
    std::uint32_t resets = 0;
    steps_.clear();
    while (sq < seqs.size() && steps_.size() < n) {
      if (off == 0) ++resets;  // a sequence starts (empty ones included)
      if (off < seqs[sq].size()) {
        steps_.push_back(Step{seqs[sq][off++], resets});
        resets = 0;
      }
      if (off == seqs[sq].size()) {
        ++sq;
        off = 0;
      }
    }
    if (resets != 0) steps_.push_back(Step{{}, resets, false});
    run_epoch(ff_init);
  }
}

void ShardedSim::run_shard(ConcurrentSim& e, unsigned shard, const Epoch& ep,
                           ShardLog& log) {
  log.newly = 0;
  log.start = Clock::now();
  for (std::size_t i = 0; i < ep.steps.size(); ++i) {
    const Step& st = ep.steps[i];
    for (std::uint32_t r = 0; r < st.resets; ++r) e.reset(ep.ff_init);
    if (!st.has_vector) break;
    if (ep.injector != nullptr) {
      ep.injector->maybe_fire(shard, ep.first_vec + i);
    }
    const bool sampled =
        ep.sample_every != 0 && (ep.sample_base + i) % ep.sample_every == 0;
    const Clock::time_point t0 = sampled ? Clock::now() : Clock::time_point{};
    log.newly += e.apply_vector(st.pis);
    if (!sampled) continue;
    VecRecord& r = log.records[i];
    r.start = t0;
    r.end = Clock::now();
    r.hard = e.owned_hard();
    r.potential = e.owned_potential();
    r.dropped = e.faults_dropped();
    r.live_elements = e.live_elements();
    r.traversals = e.counters().get(obs::Counter::ElementsTraversed);
    r.gates = e.gates_processed();
  }
  log.end = Clock::now();
}

std::size_t ShardedSim::run_epoch(Val ff_init) {
  const Epoch ep{steps_,
                 ff_init,
                 vectors_applied_,
                 vec_base_ + vectors_applied_,
                 timeline_ != nullptr ? timeline_->every() : 0,
                 opt_.resil.injector};
  merged_dirty_ = true;
  const Clock::time_point fork = Clock::now();
  if (opt_.resil.max_retries > 0) {
    dispatch_contained(ep);
  } else {
    pool_.parallel_for(engines_.size(), [this, &ep](std::size_t s) {
      run_shard(*engines_[s], static_cast<unsigned>(s), ep, logs_[s]);
    });
  }
  const Clock::time_point join = Clock::now();
  const std::size_t nvec =
      steps_.size() - (steps_.empty() || steps_.back().has_vector ? 0 : 1);
  vectors_applied_ += nvec;
  std::size_t newly = 0;
  for (const ShardLog& l : logs_) newly += l.newly;  // disjoint: exact sum
  if (trace_ != nullptr) trace_epoch(ep);
  if (timeline_ != nullptr) record_samples(ep, nvec, fork, join);
  if (nvec != 0) maybe_rebalance();
  return newly;
}

void ShardedSim::dispatch_contained(const Epoch& ep) {
  const std::size_t k = engines_.size();
  // Epoch-start state: what a failed or hung shard's retry restarts from.
  // Captured per shard so a retry only rebuilds the shard that failed.
  std::vector<RunStateSnapshot> snaps(k);
  std::vector<std::vector<Detect>> snap_status(k);
  for (std::size_t s = 0; s < k; ++s) {
    snaps[s] = engines_[s]->capture_run_state();
    snap_status[s] = engines_[s]->status();
  }
  // The epoch outlives this call if a worker hangs, so workers read a
  // private copy of its vectors, never the caller's suite or span.
  struct OwnedEpoch {
    std::vector<std::vector<Val>> pis;
    std::vector<Step> steps;
    Epoch ep;
  };
  const auto owned = std::make_shared<OwnedEpoch>();
  owned->steps.assign(ep.steps.begin(), ep.steps.end());
  owned->pis.reserve(owned->steps.size());
  for (Step& st : owned->steps) {
    st.pis = owned->pis.emplace_back(st.pis.begin(), st.pis.end());
  }
  owned->ep = ep;
  owned->ep.steps = owned->steps;
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t completed = 0;
  };
  struct Task {
    ConcurrentSim* engine = nullptr;
    ShardLog log;
    std::exception_ptr error;
    bool done = false;  // guarded by the round's Sync::mu
  };

  std::vector<std::size_t> pending(k);
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  for (unsigned round = 0;; ++round) {
    // Isolation boundary: one dedicated thread per pending shard (the
    // shared ThreadPool cannot abandon a hung task).  Each worker writes
    // its log into a shared_ptr'd Task so an abandoned worker scribbles on
    // its own orphaned state, never on the retry's.
    const auto sync = std::make_shared<Sync>();
    std::vector<std::shared_ptr<Task>> tasks(pending.size());
    std::vector<std::thread> threads(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const auto shard = static_cast<unsigned>(pending[i]);
      auto task = std::make_shared<Task>();
      task->engine = engines_[shard].get();
      task->log.records.resize(kMaxEpochVectors);
      tasks[i] = task;
      threads[i] = std::thread([task, sync, owned, shard] {
        try {
          run_shard(*task->engine, shard, owned->ep, task->log);
        } catch (...) {
          task->error = std::current_exception();
        }
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
        std::swap(logs_[s], tasks[i]->log);
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
      // it from the epoch start wholesale.
      engines_[s]->restore_run_state(snaps[s], snap_status[s]);
      ++shard_retries_;
      if (trace_) {
        trace_->instant(driver_tid(), "retry shard " + std::to_string(s),
                        trace_->now_us());
      }
      failed.push_back(s);
    }

    // Memory-budget overflow is the campaign's to handle (suspend part of
    // the universe, restore, go multi-pass); retrying here cannot help.
    if (budget_error) std::rethrow_exception(budget_error);
    if (failed.empty()) return;
    if (round >= opt_.resil.max_retries) {
      if (last_error) std::rethrow_exception(last_error);
      throw Error("shard deadline exceeded " +
                  std::to_string(opt_.resil.max_retries + 1) +
                  " times; giving up on the epoch at vector " +
                  std::to_string(ep.first_vec));
    }
    // Exponential backoff before the retry round.
    const std::uint64_t ms = std::uint64_t{opt_.resil.backoff_ms}
                             << std::min(round, 20u);
    if (ms != 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    pending = std::move(failed);
  }
}

std::size_t ShardedSim::epoch_vectors() const {
  std::uint64_t n = kMaxEpochVectors;
  if (const std::uint64_t p = rebalance_period(); p != 0) {
    n = std::min(n, p - vectors_applied_ % p);
  }
  return static_cast<std::size_t>(n);
}

void ShardedSim::record_samples(const Epoch& ep, std::size_t nvec,
                                Clock::time_point fork,
                                Clock::time_point join) {
  obs::TimelineSample& s = sample_scratch_;
  const auto us = [this](Clock::time_point tp) { return timeline_->us_at(tp); };
  for (std::size_t i = 0; i < nvec; ++i) {
    if ((ep.sample_base + i) % ep.sample_every != 0) continue;
    // Deterministic section: sums of per-shard owned-fault tallies -- each
    // fault counted by its owner -- so bit-identical for any --threads and
    // --rebalance (and free of counters, so CFS_OBS=OFF builds keep it).
    // Wall section: this vector ran from the first shard starting it (the
    // fork, for the epoch's first) to the last finishing it (the join, for
    // the epoch's last).
    Clock::time_point start = i == 0 ? fork : Clock::time_point::max();
    Clock::time_point end = i + 1 == nvec ? join : Clock::time_point::min();
    std::uint64_t hard = 0, potential = 0, dropped = 0, live_el = 0;
    std::uint64_t trav = 0, gates = 0;
    for (std::size_t j = 0; j < logs_.size(); ++j) {
      const VecRecord& r = logs_[j].records[i];
      hard += r.hard;
      potential += r.potential;
      dropped += r.dropped;
      live_el += r.live_elements;
      trav += r.traversals;
      gates += r.gates;
      s.shards[j] = {part_.shard_size(static_cast<unsigned>(j)) - r.hard,
                     r.live_elements, us(r.end) - us(r.start)};
      start = std::min(start, r.start);
      end = std::max(end, r.end);
    }
    s.vec = ep.sample_base + i;
    s.hard = hard;
    s.potential = potential;
    s.dropped = dropped;
    s.live_faults = part_.num_faults() - hard;
    s.live_elements = live_el;
    s.traversals = trav;
    s.gates = gates;
    s.rebalances = rebalances_;
    s.t_us = us(end);
    s.latency_us = s.t_us - us(start);
    timeline_->record(s);
    if (trace_ != nullptr) {
      // Counter tracks: area charts of the drain, alongside the slices.
      const std::uint64_t ts = trace_->us_at(end);
      trace_->counter(driver_tid(), "detections", ts,
                      {{"hard", hard}, {"potential", potential}});
      trace_->counter(driver_tid(), "pool", ts, {{"live_elements", live_el}});
      for (std::size_t j = 0; j < s.shards.size(); ++j) {
        trace_->counter(static_cast<std::uint32_t>(j), "load", ts,
                        {{"live_faults", s.shards[j].live_faults},
                         {"live_elements", s.shards[j].live_elements}});
      }
    }
  }
}

void ShardedSim::trace_epoch(const Epoch& ep) {
  const std::string name = "epoch @" + std::to_string(ep.first_vec);
  for (std::size_t s = 0; s < logs_.size(); ++s) {
    const ShardLog& l = logs_[s];
    const auto tid = static_cast<std::uint32_t>(s);
    const std::uint64_t t0 = trace_->us_at(l.start);
    const std::uint64_t t1 = trace_->us_at(l.end);
    trace_->complete(tid, name, t0, t1 - t0);
    if (l.newly > 0) {
      trace_->instant(tid, "detect x" + std::to_string(l.newly), t1);
    }
  }
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

std::uint64_t ShardedSim::rebalance_period() const {
  if (engines_.size() <= 1) return 0;
  const RebalancePolicy& rp = opt_.rebalance;
  switch (rp.mode) {
    case RebalancePolicy::Mode::Off:
      return 0;
    case RebalancePolicy::Mode::Every:
      return rp.every;
    case RebalancePolicy::Mode::Auto:
      return std::max<std::uint64_t>(rp.cooldown, 1);
  }
  return 0;
}

void ShardedSim::maybe_rebalance() {
  const std::uint64_t p = rebalance_period();
  if (p == 0 || vectors_applied_ % p != 0) return;
  if (opt_.rebalance.mode == RebalancePolicy::Mode::Auto &&
      imbalance_ratio() < opt_.rebalance.threshold) {
    return;
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
    sample_scratch_.shards.resize(engines_.size());
  }
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
