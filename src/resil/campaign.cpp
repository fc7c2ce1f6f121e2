#include "resil/campaign.h"

#include <chrono>
#include <thread>

#include "util/error.h"
#include "util/pool.h"

namespace cfs::resil {

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::uint64_t CampaignResult::digest() const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const Detect d : status) h = fnv_mix(h, static_cast<std::uint64_t>(d));
  for (const std::uint64_t v : detected_at) h = fnv_mix(h, v);
  return h;
}

CampaignRunner::CampaignRunner(const Circuit& c, const FaultUniverse& u,
                               const TestSuite& t, CampaignOptions opt,
                               const MacroFaultMap* mmap)
    : suite_(t),
      opt_(std::move(opt)),
      model_(std::make_shared<SimModel>(c, u, mmap)),
      suite_fp_(suite_fingerprint(t)) {}

CampaignRunner::CampaignRunner(std::shared_ptr<const SimModel> model,
                               const TestSuite& t, CampaignOptions opt)
    : suite_(t),
      opt_(std::move(opt)),
      model_(std::move(model)),
      suite_fp_(suite_fingerprint(t)) {}

void CampaignRunner::start_fresh() {
  const std::size_t nf = model_->num_faults();
  status_.assign(nf, Detect::None);
  detected_at_.assign(nf, kNotDetected);
  done_.assign(nf, 0);
  suspended_.assign(nf, 0);
  det_hard_ = det_potential_ = dropped_ = 0;
  pass_ = 0;
  seq_ = vec_ = pos_ = 0;
  resumed_mid_sequence_ = false;
  build_sim();
}

void CampaignRunner::start_resumed() {
  CampaignCheckpoint ck = load_checkpoint(opt_.resume_path);
  const Circuit& c = model_->circuit();
  if (ck.suite_fp != suite_fp_) {
    throw SnapshotError("checkpoint was written for a different test suite");
  }
  if (ck.num_gates != c.num_gates() || ck.num_dffs != c.dffs().size() ||
      ck.num_pis != c.inputs().size() ||
      ck.num_faults != model_->num_faults() ||
      (ck.transition_mode != 0) != model_->transition_mode()) {
    throw SnapshotError(
        "checkpoint was written for a different circuit or fault universe");
  }
  status_ = std::move(ck.status);
  detected_at_ = std::move(ck.detected_at);
  done_ = std::move(ck.done);
  suspended_ = std::move(ck.suspended);
  det_hard_ = ck.detections_hard;
  det_potential_ = ck.detections_potential;
  dropped_ = ck.faults_dropped;
  pass_ = ck.pass;
  seq_ = ck.seq_index;
  vec_ = ck.vec_index;
  pos_ = ck.suite_pos;
  if (opt_.timeline != nullptr) opt_.timeline->truncate_stream_at(pos_);
  build_sim();
  // Mid-sequence resumes continue from the snapshotted machine state; a
  // cursor at a sequence boundary starts the next sequence from the normal
  // initial state instead (exactly what the uninterrupted run would do).
  resumed_mid_sequence_ = vec_ != 0;
  if (resumed_mid_sequence_) restore_with_budget(ck.run);
}

void CampaignRunner::build_sim() {
  for (;;) {
    try {
      ShardedOptions so = opt_.sharded;
      so.suspended = suspended_;
      sim_ = std::make_unique<ShardedSim>(model_, std::move(so));
      // Samples carry suite positions: a resumed campaign's timeline
      // continues where the interrupted one left off.
      if (opt_.timeline != nullptr) sim_->set_timeline(opt_.timeline, pos_);
      if (opt_.trace != nullptr) sim_->set_trace(opt_.trace);
      return;
    } catch (const PoolBudgetError&) {
      // Even the initial activation does not fit: park half the universe
      // before the first vector; later passes will pick it up.
      suspend_half();
    }
  }
}

void CampaignRunner::restore_with_budget(const RunStateSnapshot& snap) {
  for (;;) {
    try {
      sim_->restore_run_state(snap, status_);
      return;
    } catch (const PoolBudgetError&) {
      suspend_half();
    }
  }
}

void CampaignRunner::reset_with_budget() {
  for (;;) {
    try {
      sim_->reset(opt_.ff_init, /*clear_status=*/false);
      return;
    } catch (const PoolBudgetError&) {
      suspend_half();
    }
  }
}

void CampaignRunner::suspend_half() {
  std::vector<std::uint32_t> active;
  for (std::uint32_t id = 0; id < status_.size(); ++id) {
    if (suspended_[id] == 0 && done_[id] == 0 && status_[id] != Detect::Hard) {
      active.push_back(id);
    }
  }
  if (active.size() <= 1) {
    throw Error("element budget (" +
                std::to_string(opt_.sharded.csim.max_elements) +
                ") too small: overflow with " +
                std::to_string(active.size()) + " active fault(s) left");
  }
  // Keep the lower half (by fault id) active; everything above waits for a
  // later pass.  Deterministic: depends only on ids and master status.
  for (std::size_t i = active.size() / 2; i < active.size(); ++i) {
    suspended_[active[i]] = 1;
  }
  if (sim_) sim_->set_suspended(suspended_);
}

void CampaignRunner::absorb_status(std::uint64_t suite_pos) {
  const std::vector<Detect>& st = sim_->status();
  const bool drop = opt_.sharded.csim.drop_detected;
  for (std::size_t id = 0; id < st.size(); ++id) {
    if (st[id] == status_[id]) continue;
    if (st[id] == Detect::Hard) {
      status_[id] = Detect::Hard;
      detected_at_[id] = suite_pos;
      ++det_hard_;
      if (drop) ++dropped_;
    } else if (st[id] == Detect::Potential &&
               status_[id] == Detect::None) {
      status_[id] = Detect::Potential;
      ++det_potential_;
    }
  }
}

bool CampaignRunner::pass_remainder_exists() const {
  for (std::size_t id = 0; id < status_.size(); ++id) {
    if (suspended_[id] != 0 && done_[id] == 0 &&
        status_[id] != Detect::Hard) {
      return true;
    }
  }
  return false;
}

CampaignCheckpoint CampaignRunner::make_checkpoint() const {
  CampaignCheckpoint ck;
  const Circuit& c = model_->circuit();
  ck.suite_fp = suite_fp_;
  ck.num_gates = static_cast<std::uint32_t>(c.num_gates());
  ck.num_dffs = static_cast<std::uint32_t>(c.dffs().size());
  ck.num_pis = static_cast<std::uint32_t>(c.inputs().size());
  ck.num_faults = static_cast<std::uint32_t>(model_->num_faults());
  ck.transition_mode = model_->transition_mode() ? 1 : 0;
  ck.pass = pass_;
  // Normalize the cursor so a resume at a sequence boundary begins the next
  // sequence cleanly (vec_index 0 == "start of sequence").
  std::uint64_t s = seq_;
  std::uint64_t v = vec_;
  const auto& seqs = suite_.sequences();
  while (s < seqs.size() && v >= seqs[s].size()) {
    ++s;
    v = 0;
  }
  ck.seq_index = s;
  ck.vec_index = v;
  ck.suite_pos = pos_;
  ck.detections_hard = det_hard_;
  ck.detections_potential = det_potential_;
  ck.faults_dropped = dropped_;
  ck.status = status_;
  ck.detected_at = detected_at_;
  ck.done = done_;
  ck.suspended = suspended_;
  ck.run = sim_->capture_run_state();
  return ck;
}

void CampaignRunner::write_checkpoint() {
  // Flush the timeline stream only at checkpoint boundaries, and before
  // the checkpoint: whichever checkpoint a kill leaves on disk, the stream
  // holds every sample before it.  Samples past it (a kill between this
  // flush and the rename) are trimmed on resume, so the resumed campaign
  // appends a contiguous, duplicate-free continuation.
  if (opt_.timeline != nullptr) opt_.timeline->flush();
  checkpoint_write_retries_ += save_checkpoint_retry(
      opt_.checkpoint_path, make_checkpoint(),
      {opt_.checkpoint_retries, opt_.checkpoint_backoff_ms});
  ++checkpoints_;
}

CampaignResult CampaignRunner::run() {
  if (!opt_.resume_path.empty()) {
    start_resumed();
  } else {
    start_fresh();
  }

  const std::size_t nf = model_->num_faults();
  const bool budgeted = opt_.sharded.csim.max_elements != 0;
  const auto& seqs = suite_.sequences();

  const auto finish = [&](bool halted, bool stopped = false) {
    // Orderly exits drain the sample buffer (a checkpoint, when one was
    // just written, already covers everything flushed here).
    if (opt_.timeline != nullptr) opt_.timeline->flush();
    CampaignResult res;
    res.status = status_;
    res.detected_at = detected_at_;
    res.coverage = summarize(status_);
    res.detections_hard = det_hard_;
    res.detections_potential = det_potential_;
    res.faults_dropped = dropped_;
    res.passes = pass_ + 1;
    res.vectors = vectors_run_;
    res.checkpoints_written = checkpoints_;
    res.checkpoint_write_retries = checkpoint_write_retries_;
    res.halted = halted;
    res.stopped = stopped;
    res.shard_retries = sim_->shard_retries();
    res.shard_requeues = sim_->shard_requeues();
    res.peak_elements = sim_->stats().total.peak_elements;
    res.rebalances = sim_->rebalances();
    res.faults_migrated = sim_->faults_migrated();
    res.elements_migrated = sim_->elements_migrated();
    return res;
  };

  for (;;) {  // memory-budget passes
    for (; seq_ < seqs.size(); ++seq_, vec_ = 0) {
      const PatternSet& sq = seqs[seq_];
      // Suite position of this sequence's first vector (pass-independent;
      // detected_at stamps are relative to the suite, not the campaign).
      std::uint64_t seq_base = 0;
      for (std::uint64_t i = 0; i < seq_; ++i) seq_base += seqs[i].size();
      if (!resumed_mid_sequence_) {
        // Sequence start: the engines' own reset(), NOT a restore of an
        // empty synthetic snapshot -- restore injects a snapshot's
        // divergence lists verbatim, so an empty one would silently skip
        // the flip-flop site faults that diverge in the initial state.
        // Engines freshly built by a boundary resume first adopt the
        // master status so already-detected faults stay dropped.
        sim_->adopt_status(status_);
        reset_with_budget();
      }
      resumed_mid_sequence_ = false;
      while (vec_ < sq.size()) {
        // Boundary snapshot: what a budget overflow mid-vector rolls back
        // to.  Only paid when a budget is actually enforced.
        RunStateSnapshot boundary;
        if (budgeted) boundary = sim_->capture_run_state();
        for (;;) {
          try {
            sim_->apply_vector(sq[vec_]);
            break;
          } catch (const PoolBudgetError&) {
            if (!budgeted) throw;
            // Degrade: park half the remaining work, roll the engines back
            // to the vector boundary, and retry the same vector.
            suspend_half();
            restore_with_budget(boundary);
          }
        }
        absorb_status(seq_base + vec_);
        ++vec_;
        ++pos_;
        ++vectors_run_;
        if (opt_.sleep_ms != 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(opt_.sleep_ms));
        }
        if (!opt_.checkpoint_path.empty() && opt_.checkpoint_every != 0 &&
            pos_ % opt_.checkpoint_every == 0) {
          write_checkpoint();
        }
        if (opt_.halt_after != 0 && pos_ >= opt_.halt_after) {
          if (!opt_.checkpoint_path.empty()) write_checkpoint();
          return finish(/*halted=*/true);
        }
        if (opt_.stop != nullptr &&
            opt_.stop->load(std::memory_order_relaxed)) {
          // Graceful drain: persist the boundary just reached so the session
          // resumes bit-identically, then report halted+stopped.
          if (!opt_.checkpoint_path.empty()) write_checkpoint();
          return finish(/*halted=*/true, /*stopped=*/true);
        }
      }
    }

    // Pass complete: everything that was active is now fully simulated.
    for (std::size_t id = 0; id < nf; ++id) {
      if (suspended_[id] == 0) done_[id] = 1;
    }
    if (!pass_remainder_exists()) break;
    ++pass_;
    if (pass_ >= opt_.max_passes) {
      throw Error("element budget requires more than " +
                  std::to_string(opt_.max_passes) +
                  " passes; raise --max-elements");
    }
    // Next pass: activate exactly the parked remainder (suspended, not yet
    // fully simulated, not already hard-detected).
    for (std::size_t id = 0; id < nf; ++id) {
      const bool remaining = suspended_[id] != 0 && done_[id] == 0 &&
                             status_[id] != Detect::Hard;
      suspended_[id] = remaining ? 0 : 1;
    }
    sim_->set_suspended(suspended_);
    seq_ = 0;
    vec_ = 0;
  }

  if (!opt_.checkpoint_path.empty()) write_checkpoint();
  return finish(/*halted=*/false);
}

}  // namespace cfs::resil
