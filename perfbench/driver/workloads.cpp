#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "baseline/proofs_sim.h"
#include "baseline/serial_sim.h"
#include "core/concurrent_sim.h"
#include "core/sim_model.h"
#include "faults/macro_map.h"
#include "faults/partition.h"
#include "faults/sampling.h"
#include "gen/iscas_profiles.h"
#include "host.h"
#include "netlist/macro_extract.h"
#include "obs/timeline.h"
#include "resil/campaign.h"
#include "resil/snapshot.h"
#include "sim/sharded_sim.h"

namespace perfbench {

using namespace cfs;

namespace {

double since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Campaign-style status absorption (resil::CampaignRunner::absorb_status):
// a fault's first hard detection stamps its suite position.
void absorb(const std::vector<Detect>& st, std::vector<Detect>& status,
            std::vector<std::uint64_t>& detected_at, std::uint64_t pos) {
  for (std::size_t id = 0; id < st.size(); ++id) {
    if (st[id] == status[id]) continue;
    if (st[id] == Detect::Hard) {
      status[id] = Detect::Hard;
      detected_at[id] = pos;
    } else if (st[id] == Detect::Potential && status[id] == Detect::None) {
      status[id] = Detect::Potential;
    }
  }
}

std::uint64_t digest_of(const std::vector<Detect>& status,
                        const std::vector<std::uint64_t>& detected_at) {
  resil::CampaignResult r;
  r.status = status;
  r.detected_at = detected_at;
  return r.digest();
}

// Everything set-up builds, owned in dependency order (the model refers to
// the circuit, universe and macro map; engines refer to the model), with
// the wall time of each step.
struct Built {
  std::unique_ptr<Circuit> circuit;
  std::unique_ptr<FaultUniverse> universe;
  std::unique_ptr<MacroExtraction> ext;
  std::unique_ptr<MacroFaultMap> mmap;
  std::shared_ptr<const SimModel> model;
  double gen_s = 0, universe_s = 0, extract_s = 0, map_s = 0, model_s = 0;
};

// Span names of the traced run.
struct Names {
  std::uint32_t run, setup, sim, gen, universe, extract, map, model, init,
      reset, vector, pi_settle, sample, clock, shard, svector, absorb,
      capture, save;
  explicit Names(SpanLog& l)
      : run(l.intern("run")), setup(l.intern("setup")),
        sim(l.intern("sim")), gen(l.intern("gen.make_benchmark")),
        universe(l.intern("faults.universe")),
        extract(l.intern("netlist.extract_macros")),
        map(l.intern("faults.map_macros")),
        model(l.intern("core.model_build")),
        init(l.intern("core.engine_init")), reset(l.intern("core.reset")),
        vector(l.intern("core.vector")),
        pi_settle(l.intern("core.pi_settle")),
        sample(l.intern("core.sample")), clock(l.intern("core.clock")),
        shard(l.intern("sim.shard")), svector(l.intern("sim.vector")),
        absorb(l.intern("driver.absorb")),
        capture(l.intern("resil.capture")), save(l.intern("resil.save")) {}
};

// Times `f` into `secs`, inside a span named `name` when `log` is set.
template <typename F>
void step(SpanLog* log, std::uint32_t name, double& secs, F&& f) {
  Scoped s(log, 0, name);
  const std::int64_t t0 = now_ns();
  f();
  secs = since(t0);
}

// Circuit, universe, macros and model: the set-up every workload shares.
// Stuck-at workloads run csim-MV (macro mode); transition mode never
// extracts macros, as in `cfs sim --transition`.
Built build_model(const WorkloadSpec& w, SpanLog* log = nullptr,
                  const Names* n = nullptr) {
  Built b;
  const auto nm = [&](std::uint32_t Names::*f) { return n ? n->*f : 0u; };
  step(log, nm(&Names::gen), b.gen_s, [&] {
    b.circuit = std::make_unique<Circuit>(make_benchmark(w.circuit));
  });
  step(log, nm(&Names::universe), b.universe_s, [&] {
    b.universe = std::make_unique<FaultUniverse>(
        w.transition ? FaultUniverse::all_transition(*b.circuit)
                     : FaultUniverse::all_stuck_at(*b.circuit));
  });
  if (!w.transition) {
    step(log, nm(&Names::extract), b.extract_s, [&] {
      b.ext = std::make_unique<MacroExtraction>(extract_macros(*b.circuit));
    });
    step(log, nm(&Names::map), b.map_s, [&] {
      b.mmap = std::make_unique<MacroFaultMap>(
          map_faults_to_macros(*b.circuit, *b.ext, *b.universe));
    });
  }
  step(log, nm(&Names::model), b.model_s, [&] {
    b.model = b.ext ? std::make_shared<SimModel>(b.ext->circuit, *b.universe,
                                                 b.mmap.get())
                    : std::make_shared<SimModel>(*b.circuit, *b.universe);
  });
  return b;
}

ShardedOptions sharded_options(const WorkloadSpec& w) {
  ShardedOptions so;
  so.num_threads = effective_threads(w);
  return so;
}

resil::CampaignOptions campaign_options(const WorkloadSpec& w,
                                        const std::string& ckpt,
                                        obs::Timeline* timeline) {
  resil::CampaignOptions co;
  co.sharded = sharded_options(w);
  co.ff_init = Val::Zero;
  co.checkpoint_path = ckpt;
  co.checkpoint_every = w.checkpoint_every;
  co.timeline = timeline;
  return co;
}

std::string checkpoint_path(const std::string& workdir) {
  return workdir + "/campaign.ckpt";
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "s5378-seq-t1",
       .circuit = "s5378",
       .driver = Driver::Engine,
       .threads = 1,
       .vectors = 1024},
      {.name = "s35932-seq-t4",
       .circuit = "s35932",
       .driver = Driver::Sharded,
       .threads = 4,
       .vectors = 128},
      // Two threads, not nproc: with a per-vector barrier over every CPU,
      // CPU time stolen by other tenants of a shared host stalls whole
      // vectors, and 4-thread wall time swung 0.9-3.1 s between runs while
      // CPU time moved 5%; at 2 threads the barrier stays and runs agree.
      {.name = "s5378-tr-campaign-t2",
       .circuit = "s5378",
       .transition = true,
       .driver = Driver::Campaign,
       .threads = 2,
       .sequences = 32,
       .vectors = 16,
       .checkpoint_every = 64,
       .ref_sample = 128},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

unsigned effective_threads(const WorkloadSpec& w) {
  return std::max(1u, std::min(w.threads, online_cpus()));
}

TestSuite make_suite(const WorkloadSpec& w, std::uint64_t seed) {
  const std::size_t npi = iscas89_profile(w.circuit).num_pis;
  TestSuite t;
  for (std::size_t i = 0; i < w.sequences; ++i) {
    t.sequences().push_back(
        PatternSet::random(npi, w.vectors, splitmix(seed * 1000003u + i)));
  }
  return t;
}

// -- reference ---------------------------------------------------------------

Reference compute_reference(const WorkloadSpec& w, const TestSuite& t,
                            std::uint64_t seed) {
  Reference ref;
  const Circuit c = make_benchmark(w.circuit);
  if (!w.transition) {
    // PROOFS on the flat circuit: an engine with no code in common with
    // the concurrent fault lists.
    ref.kind = "proofs";
    const FaultUniverse u = FaultUniverse::all_stuck_at(c);
    ProofsSim proofs(c, u, Val::Zero);
    const std::int64_t t0 = now_ns();
    for (const PatternSet& seq : t.sequences()) {
      proofs.reset(Val::Zero);
      for (std::size_t i = 0; i < seq.size(); ++i) proofs.apply_vector(seq[i]);
    }
    ref.oracle_s = since(t0);
    ref.status = proofs.status();
  } else {
    // Serial two-pass transition simulation, one faulty machine at a time,
    // on a seeded sample of the universe (the full universe would take
    // minutes per seed).
    ref.kind = "serial-transition";
    const FaultUniverse u = FaultUniverse::all_transition(c);
    const SubUniverse sub =
        restrict_universe(u, sample_faults(u, w.ref_sample, splitmix(~seed)));
    SerialOptions so;
    so.ff_init = Val::Zero;
    const std::int64_t t0 = now_ns();
    const SerialResult sr = serial_transition_sim(c, sub.universe, t, so);
    ref.oracle_s = since(t0);
    ref.ids = sub.original;
    ref.status = sr.status;
  }
  if (w.driver == Driver::Campaign) add_single_engine_run(w, t, ref);
  return ref;
}

void add_single_engine_run(const WorkloadSpec& w, const TestSuite& t,
                           Reference& ref) {
  const Built b = build_model(w);
  ConcurrentSim sim(b.model);
  const std::size_t nf = b.model->num_faults();
  std::vector<Detect> status(nf, Detect::None);
  std::vector<std::uint64_t> detected_at(nf, resil::kNotDetected);
  std::uint64_t pos = 0;
  const std::int64_t t0 = now_ns();
  for (const PatternSet& seq : t.sequences()) {
    sim.reset(Val::Zero);
    for (std::size_t i = 0; i < seq.size(); ++i, ++pos) {
      sim.apply_vector(seq[i]);
      if (w.driver == Driver::Campaign) {
        absorb(sim.status(), status, detected_at, pos);
      }
    }
  }
  ref.single_sim_s = since(t0);
  ref.single_gates = sim.gates_processed();
  if (w.driver == Driver::Campaign) ref.digest = digest_of(status, detected_at);
}

void save_reference(const std::string& path, const Reference& r) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    os << "perfbench-reference 1\n"
       << "kind " << r.kind << "\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", r.oracle_s);
    os << "oracle_s " << buf << "\n";
    std::snprintf(buf, sizeof buf, "%.17g", r.single_sim_s);
    os << "single_sim_s " << buf << "\n"
       << "single_gates " << r.single_gates << "\n"
       << "digest " << r.digest << "\n"
       << "ids " << r.ids.size();
    for (std::uint32_t id : r.ids) os << ' ' << id;
    os << "\nstatus " << r.status.size() << ' ';
    for (Detect d : r.status) os << static_cast<int>(d);
    os << "\n";
    if (!os) throw std::runtime_error("cannot write " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("no reference file " + path);
  Reference r;
  std::string key;
  int version = 0;
  in >> key >> version;
  if (key != "perfbench-reference" || version != 1) {
    throw std::runtime_error("bad reference file " + path);
  }
  std::size_t n = 0;
  std::string digits;
  in >> key >> r.kind >> key >> r.oracle_s >> key >> r.single_sim_s >> key >>
      r.single_gates >> key >> r.digest >> key >> n;
  r.ids.resize(n);
  for (std::uint32_t& id : r.ids) in >> id;
  in >> key >> n >> digits;
  if (!in || key != "status" || digits.size() != n ||
      (!r.ids.empty() && r.ids.size() != n)) {
    throw std::runtime_error("truncated reference file " + path);
  }
  for (char ch : digits) {
    if (ch < '0' || ch > '2') throw std::runtime_error("bad status in " + path);
    r.status.push_back(static_cast<Detect>(ch - '0'));
  }
  return r;
}

std::string check(const WorkloadSpec& w, const Reference& ref, const Rep& r) {
  const std::size_t n = ref.ids.empty() ? r.status.size() : ref.ids.size();
  if (ref.ids.empty() && r.status.size() != ref.status.size()) {
    return "status size " + std::to_string(r.status.size()) +
           " != reference " + std::to_string(ref.status.size());
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = ref.ids.empty() ? static_cast<std::uint32_t>(i)
                                             : ref.ids[i];
    if (id >= r.status.size()) return "reference fault id out of range";
    if (r.status[id] != ref.status[i]) {
      return "fault " + std::to_string(id) + ": status " +
             std::to_string(static_cast<int>(r.status[id])) + ", " +
             ref.kind + " says " +
             std::to_string(static_cast<int>(ref.status[i]));
    }
  }
  if (w.driver == Driver::Campaign && r.digest != ref.digest) {
    return "campaign digest differs from the single-engine run";
  }
  return "";
}

// -- untraced repetition -------------------------------------------------------

Rep run_untraced(const WorkloadSpec& w, const TestSuite& t,
                 const std::string& workdir) {
  Rep rep;
  const std::int64_t s0 = now_ns();
  Built b = build_model(w);
  std::int64_t t0 = 0;
  double c0 = 0;
  const auto start_sim = [&] {
    rep.setup_s = since(s0);
    c0 = process_cpu_s();
    t0 = now_ns();
  };
  const auto stop_sim = [&] {
    rep.sim_s = since(t0);
    rep.cpu_s = process_cpu_s() - c0;
  };
  switch (w.driver) {
    case Driver::Engine: {
      ConcurrentSim sim(b.model);
      start_sim();
      for (const PatternSet& seq : t.sequences()) {
        sim.reset(Val::Zero);
        for (std::size_t i = 0; i < seq.size(); ++i) sim.apply_vector(seq[i]);
      }
      rep.status = sim.status();
      stop_sim();
      break;
    }
    case Driver::Sharded: {
      ShardedSim sim(b.model, sharded_options(w));
      start_sim();
      sim.run(t, Val::Zero);
      rep.status = sim.status();
      stop_sim();
      break;
    }
    case Driver::Campaign: {
      // CampaignRunner builds its ShardedSim inside run(), so on this
      // workload engine construction is part of sim_s.
      obs::Timeline timeline(4096, 1);
      resil::CampaignRunner runner(
          b.model, t,
          campaign_options(w, checkpoint_path(workdir), &timeline));
      start_sim();
      const resil::CampaignResult r = runner.run();
      stop_sim();
      rep.status = r.status;
      rep.digest = r.digest();
      break;
    }
  }
  return rep;
}


// -- traced repetition ---------------------------------------------------------

namespace {

// Work counters from the engines' public accessors, summed over engines.
struct EngineWork {
  std::uint64_t gates = 0, evaluated = 0, traversed = 0, allocated = 0,
                migrations = 0, peak = 0;

  void add(std::uint64_t g, std::uint64_t e, const obs::Counters& c,
           std::size_t p) {
    gates += g;
    evaluated += e;
    traversed += c.get(obs::Counter::ElementsTraversed);
    allocated += c.get(obs::Counter::ElementsAllocated);
    migrations += c.get(obs::Counter::VisToInvMigrations) +
                  c.get(obs::Counter::InvToVisMigrations);
    peak += p;
  }
  void add(const ConcurrentSim& e) {
    add(e.gates_processed(), e.elements_evaluated(), e.counters(),
        e.peak_elements());
  }

  // `core_busy_s`: time spent inside engine calls, summed over engines.
  void fill(Layers& l, double core_busy_s) const {
    l["core.gates_processed"] = static_cast<double>(gates);
    l["core.elements_evaluated"] = static_cast<double>(evaluated);
    l["core.elements_traversed"] = static_cast<double>(traversed);
    l["core.elements_allocated"] = static_cast<double>(allocated);
    l["core.migrations"] = static_cast<double>(migrations);
    l["core.peak_elements"] = static_cast<double>(peak);
    l["core.ns_per_traversal"] =
        traversed == 0 ? 0
                       : core_busy_s * 1e9 / static_cast<double>(traversed);
  }
};

// One vector through the granular stuck-at API, a span per phase.
void traced_vector(ConcurrentSim& sim, std::span<const Val> v, SpanLog* log,
                   unsigned th, const Names& n) {
  Scoped vs(log, th, n.vector);
  {
    Scoped s(log, th, n.pi_settle);
    sim.set_inputs(v);
    sim.settle();
  }
  {
    Scoped s(log, th, n.sample);
    sim.sample_outputs();
  }
  Scoped s(log, th, n.clock);
  sim.clock();
}

void traced_sequences(ConcurrentSim& sim, const TestSuite& t, SpanLog* log,
                      unsigned th, const Names& n) {
  for (const PatternSet& seq : t.sequences()) {
    {
      Scoped s(log, th, n.reset);
      sim.reset(Val::Zero);
    }
    for (std::size_t i = 0; i < seq.size(); ++i) {
      traced_vector(sim, seq[i], log, th, n);
    }
  }
}

std::vector<double> scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

// Summed duration of every span named `name`, in seconds.
double summed(const SpanLog& log, const std::string& name) {
  double s = 0;
  for (const double d : log.durations(name)) s += d;
  return s;
}

// The lockstep campaign loop of resil::CampaignRunner::run, replayed
// through the same public calls so each gets a span: ShardedSim::reset and
// apply_vector, status absorption, and every checkpoint_every vectors a
// capture (capture_run_state plus the campaign state) and a
// save_checkpoint.  Per-shard vector times come from the in-memory
// timeline the campaign also samples.
void traced_campaign(const WorkloadSpec& w, const Built& b, const TestSuite& t,
                     const std::string& ckpt, SpanLog* log, const Names& n,
                     Rep& rep, Layers& l, double& init_s) {
  const std::size_t nf = b.model->num_faults();
  const Circuit& c = b.model->circuit();
  const std::uint64_t suite_fp = resil::suite_fingerprint(t);
  std::vector<Detect> status(nf, Detect::None);
  std::vector<std::uint64_t> detected_at(nf, resil::kNotDetected);
  std::vector<std::uint8_t> done(nf, 0);
  const std::vector<std::uint8_t> none_suspended(nf, 0);
  obs::Timeline timeline(4096, 1);
  std::unique_ptr<ShardedSim> sim;
  std::uint64_t pos = 0;
  std::uint64_t seq_i = 0;
  std::uint64_t checkpoints = 0;
  double bytes = 0;
  const auto checkpoint = [&] {
    resil::CampaignCheckpoint ck;
    {
      Scoped s(log, 0, n.capture);
      ck.suite_fp = suite_fp;
      ck.num_gates = static_cast<std::uint32_t>(c.num_gates());
      ck.num_dffs = static_cast<std::uint32_t>(c.dffs().size());
      ck.num_pis = static_cast<std::uint32_t>(c.inputs().size());
      ck.num_faults = static_cast<std::uint32_t>(nf);
      ck.transition_mode = b.model->transition_mode() ? 1 : 0;
      ck.seq_index = seq_i;
      ck.suite_pos = pos;
      ck.status = status;
      ck.detected_at = detected_at;
      ck.done = done;
      ck.suspended = none_suspended;
      ck.run = sim->capture_run_state();
    }
    Scoped s(log, 0, n.save);
    resil::save_checkpoint(ckpt, ck);
    bytes += static_cast<double>(std::filesystem::file_size(ckpt));
    ++checkpoints;
  };

  const double c0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  {
    Scoped sim_span(log, 0, n.sim);
    step(log, n.init, init_s, [&] {
      sim = std::make_unique<ShardedSim>(b.model, sharded_options(w));
      sim->set_timeline(&timeline);
    });
    for (const PatternSet& seq : t.sequences()) {
      {
        Scoped s(log, 0, n.reset);
        sim->reset(Val::Zero);
      }
      for (std::size_t i = 0; i < seq.size(); ++i) {
        {
          Scoped s(log, 0, n.svector);
          sim->apply_vector(seq[i]);
        }
        {
          Scoped s(log, 0, n.absorb);
          absorb(sim->status(), status, detected_at, pos);
        }
        ++pos;
        if (w.checkpoint_every != 0 && pos % w.checkpoint_every == 0) {
          checkpoint();
        }
      }
      ++seq_i;
    }
    std::fill(done.begin(), done.end(), 1);
    checkpoint();  // the campaign's final checkpoint
  }
  rep.sim_s = since(t0);
  rep.cpu_s = process_cpu_s() - c0;
  rep.status = status;
  rep.digest = digest_of(status, detected_at);
  std::filesystem::remove(ckpt);
  if (log == nullptr) return;

  std::vector<double> vec_us, barrier_us, shard_us;
  std::vector<double> busy(sim->num_shards(), 0);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const obs::TimelineSample& s = timeline.at(i);
    std::uint64_t slowest = 0;
    for (std::size_t j = 0; j < s.shards.size(); ++j) {
      const std::uint64_t us = s.shards[j].latency_us;
      slowest = std::max(slowest, us);
      busy[j] += static_cast<double>(us) * 1e-6;
      shard_us.push_back(static_cast<double>(us));
    }
    vec_us.push_back(static_cast<double>(s.latency_us));
    barrier_us.push_back(
        static_cast<double>(s.latency_us - std::min(slowest, s.latency_us)));
  }
  const double run_s = summed(*log, "core.reset") + summed(*log, "sim.vector");
  const double bmax = *std::max_element(busy.begin(), busy.end());
  double bsum = 0;
  for (const double x : busy) bsum += x;
  l["sim.run_s"] = run_s;
  l["sim.shard_busy_max_s"] = bmax;
  l["sim.shard_busy_sum_s"] = bsum;
  l["sim.wait_s"] = run_s - bmax;
  l["sim.shard_skew"] =
      bsum > 0 ? bmax * static_cast<double>(busy.size()) / bsum : 0;
  l["sim.vector_us.p50"] = quantile(vec_us, 0.5);
  l["sim.vector_us.p99"] = quantile(vec_us, 0.99);
  l["sim.barrier_us.p50"] = quantile(barrier_us, 0.5);
  l["sim.barrier_us.p99"] = quantile(barrier_us, 0.99);
  l["core.vector_us.p50"] = quantile(shard_us, 0.5);
  l["core.vector_us.p99"] = quantile(shard_us, 0.99);
  l["resil.capture_s"] = summed(*log, "resil.capture");
  l["resil.save_s"] = summed(*log, "resil.save");
  l["resil.checkpoints"] = static_cast<double>(checkpoints);
  l["resil.checkpoint_bytes"] = bytes;
  EngineWork work;
  for (const EngineStats& e : sim->stats().per_engine) {
    work.add(e.gates_processed, e.elements_evaluated, e.counters,
             e.peak_elements);
  }
  work.fill(l, bsum);
}

}  // namespace

Rep run_traced(const WorkloadSpec& w, const TestSuite& t,
               const std::string& workdir, SpanLog* log, Layers& l,
               std::uint64_t& root) {
  SpanLog names_only(0);  // span names when no spans are recorded
  const Names n(log != nullptr ? *log : names_only);
  Rep rep;
  double init_s = 0;
  {
    Scoped run(log, 0, n.run);
    root = run.id();
    const std::int64_t s0 = now_ns();
    std::optional<Scoped> setup(std::in_place, log, 0, n.setup);
    const Built b = build_model(w, log, &n);
    const auto end_setup = [&] {
      setup.reset();
      rep.setup_s = since(s0);
    };
    switch (w.driver) {
      case Driver::Engine: {
        std::unique_ptr<ConcurrentSim> sim;
        step(log, n.init, init_s,
             [&] { sim = std::make_unique<ConcurrentSim>(b.model); });
        end_setup();
        const double c0 = process_cpu_s();
        const std::int64_t t0 = now_ns();
        {
          Scoped sim_span(log, 0, n.sim);
          traced_sequences(*sim, t, log, 0, n);
          rep.status = sim->status();
        }
        rep.sim_s = since(t0);
        rep.cpu_s = process_cpu_s() - c0;
        EngineWork work;
        work.add(*sim);
        work.fill(l, rep.sim_s);
        break;
      }
      case Driver::Sharded: {
        // One engine per shard of the round-robin partition ShardedSim
        // builds, each constructed and driven on its own thread (thread
        // s + 1 of the log) over the same vectors.
        const unsigned k = effective_threads(w);
        const FaultPartition part(b.model->num_faults(), k);
        std::vector<std::unique_ptr<ConcurrentSim>> engines(k);
        // Runs body(s, parent) on one thread per shard; the first
        // exception a shard throws is rethrown here after every join
        // (jthread joins on every path out of the scope).
        const auto on_shards = [&](std::uint64_t parent, auto&& body) {
          std::vector<std::exception_ptr> err(k);
          {
            std::vector<std::jthread> th;
            for (unsigned s = 0; s < k; ++s) {
              th.emplace_back([&, s] {
                try {
                  body(s, parent);
                } catch (...) {
                  err[s] = std::current_exception();
                }
              });
            }
          }
          for (const std::exception_ptr& e : err) {
            if (e) std::rethrow_exception(e);
          }
        };
        {
          Scoped init(log, 0, n.init);
          const std::int64_t i0 = now_ns();
          on_shards(init.id(), [&](unsigned s, std::uint64_t parent) {
            Scoped e(log, s + 1, n.init, parent);
            engines[s] = std::make_unique<ConcurrentSim>(
                b.model, CsimOptions{}, &part, s);
          });
          init_s = since(i0);
        }
        end_setup();
        const double c0 = process_cpu_s();
        const std::int64_t t0 = now_ns();
        {
          Scoped sim_span(log, 0, n.sim);
          on_shards(sim_span.id(), [&](unsigned s, std::uint64_t parent) {
            Scoped sh(log, s + 1, n.shard, parent);
            traced_sequences(*engines[s], t, log, s + 1, n);
          });
          rep.status.assign(b.model->num_faults(), Detect::None);
          for (std::uint32_t id = 0; id < rep.status.size(); ++id) {
            rep.status[id] = engines[part.shard_of(id)]->status()[id];
          }
        }
        rep.sim_s = since(t0);
        rep.cpu_s = process_cpu_s() - c0;
        if (log == nullptr) break;
        // Run and wait times from this repetition's own spans: the sim
        // span less its slowest shard.
        const std::vector<double> busy = log->durations("sim.shard");
        const double bsum = summed(*log, "sim.shard");
        const double bmax = *std::max_element(busy.begin(), busy.end());
        l["sim.run_s"] = rep.sim_s;
        l["sim.shard_busy_max_s"] = bmax;
        l["sim.shard_busy_sum_s"] = bsum;
        l["sim.wait_s"] = rep.sim_s - bmax;
        l["sim.shard_skew"] =
            bsum > 0 ? bmax * static_cast<double>(busy.size()) / bsum : 0;
        EngineWork work;
        for (const auto& e : engines) work.add(*e);
        work.fill(l, bsum);
        break;
      }
      case Driver::Campaign:
        end_setup();
        traced_campaign(w, b, t, checkpoint_path(workdir), log, n, rep, l,
                        init_s);
        break;
    }
    l["gen.make_benchmark_s"] = b.gen_s;
    l["faults.universe_s"] = b.universe_s;
    l["netlist.extract_macros_s"] = b.extract_s;
    l["faults.map_macros_s"] = b.map_s;
    l["core.model_build_s"] = b.model_s;
    l["core.engine_init_s"] = init_s;
  }
  if (log == nullptr) return rep;
  l["core.reset_s"] = summed(*log, "core.reset");
  if (w.driver != Driver::Campaign) {
    // The campaign's transition engines have no granular API; its
    // per-vector engine times come from the timeline instead.
    l["core.pi_settle_s"] = summed(*log, "core.pi_settle");
    l["core.sample_s"] = summed(*log, "core.sample");
    l["core.clock_s"] = summed(*log, "core.clock");
    const std::vector<double> us = scaled(log->durations("core.vector"), 1e6);
    l["core.vector_us.p50"] = quantile(us, 0.5);
    l["core.vector_us.p99"] = quantile(us, 0.99);
  }
  return rep;
}

}  // namespace perfbench
