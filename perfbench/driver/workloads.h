// The benchmark's workloads, their seeded inputs, the independent reference
// each run is checked against, and one timed repetition of each workload,
// untraced (end-to-end metrics) or traced (per-layer metrics).
//
// Every call into the library goes through a public entry point, and the
// untraced path uses only the ones `cfs sim` uses: make_benchmark,
// FaultUniverse, extract_macros, map_faults_to_macros, SimModel,
// ConcurrentSim reset/apply_vector, ShardedSim::run and
// resil::CampaignRunner::run, all with library-default options.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "faults/fault.h"
#include "patterns/pattern.h"
#include "spans.h"

namespace perfbench {

enum class Driver {
  Engine,    ///< one ConcurrentSim, reset + apply_vector
  Sharded,   ///< coarse ShardedSim::run
  Campaign,  ///< resil::CampaignRunner::run with checkpoints and a timeline
};

struct WorkloadSpec {
  std::string name;
  std::string circuit;  ///< ISCAS-89 profile name
  bool transition = false;
  Driver driver = Driver::Engine;
  unsigned threads = 1;  ///< requested; clamped to the online CPU count
  std::size_t sequences = 1;
  std::size_t vectors = 0;  ///< per sequence
  std::uint64_t checkpoint_every = 0;
  /// Transition reference: faults sampled for the serial oracle.
  std::size_t ref_sample = 0;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr when unknown.
const WorkloadSpec* find_workload(const std::string& name);
unsigned effective_threads(const WorkloadSpec& w);

/// The seeded test suite: same seed, same vectors.
cfs::TestSuite make_suite(const WorkloadSpec& w, std::uint64_t seed);

/// Reference result of one (workload, seed), computed once and cached.
struct Reference {
  std::string kind;                 ///< "proofs" or "serial-transition"
  std::vector<std::uint32_t> ids;   ///< checked fault ids (empty = all)
  std::vector<cfs::Detect> status;  ///< per checked fault
  double oracle_s = 0;              ///< PROOFS / serial simulation time
  /// Single-engine csim run over the same suite (multi-thread workloads;
  /// 0 until computed): its gates_processed is the good-machine
  /// duplication base, its time the 1-thread csim time.
  std::uint64_t single_gates = 0;
  double single_sim_s = 0;
  /// Campaign: digest of (status, detected_at) of the single-engine run.
  std::uint64_t digest = 0;
};

/// The oracle's status, plus (campaign) the single-engine run.
Reference compute_reference(const WorkloadSpec& w, const cfs::TestSuite& t,
                            std::uint64_t seed);
/// Fills the single_* fields (and the campaign digest) from one
/// single-engine csim run over the suite.
void add_single_engine_run(const WorkloadSpec& w, const cfs::TestSuite& t,
                           Reference& ref);
void save_reference(const std::string& path, const Reference& r);
/// Throws on a missing or malformed file.
Reference load_reference(const std::string& path);

/// One repetition's observable outcome and timings.
struct Rep {
  double setup_s = 0;
  double sim_s = 0;
  double cpu_s = 0;  ///< process CPU over the sim_s interval
  std::vector<cfs::Detect> status;
  std::uint64_t digest = 0;  ///< campaign only
};

/// Per-layer numbers of one traced repetition, by metric name.
using Layers = std::map<std::string, double>;

/// One untraced repetition.  `workdir` holds campaign checkpoints.
Rep run_untraced(const WorkloadSpec& w, const cfs::TestSuite& t,
                 const std::string& workdir);

/// One traced repetition: spans into `log` (expected empty) under a fresh
/// root; fills the per-layer numbers the traced run itself yields.  Needs
/// log threads 0..effective_threads(w).  With a null `log` the same calls
/// run without spans and fill no layers: the untraced copy that
/// trace.overhead is measured against.
Rep run_traced(const WorkloadSpec& w, const cfs::TestSuite& t,
               const std::string& workdir, SpanLog* log, Layers& layers,
               std::uint64_t& root);

/// "" when `r` matches the reference, else the first difference.
std::string check(const WorkloadSpec& w, const Reference& ref, const Rep& r);

}  // namespace perfbench
