// perfbench_driver -- end-to-end fault-grading benchmark.
//
//   perfbench_driver --mode reference --workload W --seed N --workdir D
//       compute the independent reference of (W, N) into D/ref/
//   perfbench_driver --mode measure --workload W --seed N --seconds S
//                    --trace 0|1 --workdir D [--revision R]
//       repeat the workload for S seconds, check every run against the
//       reference, print a summary and, as the last line, one JSON object
//       {correct, attempted, failed, metrics}
//   perfbench_driver --mode self-test --workdir D
//       show that the correctness check rejects a reference with one
//       fault's status flipped (PROOFS and serial-transition references)
//
// run.py builds this program and calls it; see README.md.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "host.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"}, {"sim_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MiB"}};

constexpr Metric kPerLayer[] = {
    {"gen.make_benchmark_s", "s"},
    {"faults.universe_s", "s"},
    {"netlist.extract_macros_s", "s"},
    {"faults.map_macros_s", "s"},
    {"core.model_build_s", "s"},
    {"core.engine_init_s", "s"},
    {"core.pi_settle_s", "s"},
    {"core.sample_s", "s"},
    {"core.clock_s", "s"},
    {"core.reset_s", "s"},
    {"core.vector_us.p50", "us"},
    {"core.vector_us.p99", "us"},
    {"core.gates_processed", "count"},
    {"core.elements_evaluated", "count"},
    {"core.elements_traversed", "count"},
    {"core.elements_allocated", "count"},
    {"core.migrations", "count"},
    {"core.peak_elements", "count"},
    {"core.ns_per_traversal", "ns"},
    {"sim.run_s", "s"},
    {"sim.shard_busy_max_s", "s"},
    {"sim.shard_busy_sum_s", "s"},
    {"sim.wait_s", "s"},
    {"sim.shard_skew", "ratio"},
    {"sim.good_dup", "ratio"},
    {"sim.vector_us.p50", "us"},
    {"sim.vector_us.p99", "us"},
    {"sim.barrier_us.p50", "us"},
    {"sim.barrier_us.p99", "us"},
    {"resil.capture_s", "s"},
    {"resil.save_s", "s"},
    {"resil.checkpoint_bytes", "bytes"},
    {"resil.checkpoints", "count"},
    {"baseline.proofs_s", "s"},
    {"baseline.proofs_over_csim", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.unattributed", "ratio"},
};

// Largest share of a traced repetition's sim_s that its layer spans may
// leave uncovered.  Past it, a call the traced run makes has no span and
// the self-time table no longer accounts for sim_s: the run fails.
constexpr double kMaxUnattributed = 0.02;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  std::string need(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("usage: --key value pairs; bad '" + k + "'");
    }
    a.kv[k.substr(2)] = argv[++i];
  }
  return a;
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error(std::string(what) + " must be a whole number");
  }
  return std::stoull(s);
}

std::string reference_path(const std::string& workdir, const WorkloadSpec& w,
                           std::uint64_t seed) {
  return workdir + "/ref/" + w.name + "-seed" + std::to_string(seed) + ".ref";
}

// Runs attempted and runs that threw or differed from the reference: the
// one place a run counts toward fail_rate.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> why;

  // Checks `r` against `ref`; returns true when it matched.
  bool record(const WorkloadSpec& w, const Reference& ref, const Rep& r) {
    ++attempted;
    const std::string diff = check(w, ref, r);
    if (diff.empty()) return true;
    ++failed;
    why.push_back(diff);
    return false;
  }
  void record_throw(const std::string& what) {
    ++attempted;
    ++failed;
    why.push_back("threw: " + what);
  }
};

// -- self-test of the correctness check ---------------------------------------

bool self_test(const std::string& workdir, std::string& report) {
  // Small shapes of the two reference kinds, run through the same rep and
  // tally code as the real workloads.
  const WorkloadSpec stuck_at{.name = "selftest-stuck-at",
                              .circuit = "s298",
                              .driver = Driver::Engine,
                              .vectors = 64};
  const WorkloadSpec transition{.name = "selftest-transition",
                                .circuit = "s298",
                                .transition = true,
                                .driver = Driver::Campaign,
                                .threads = 2,
                                .sequences = 4,
                                .vectors = 8,
                                .checkpoint_every = 8,
                                .ref_sample = 64};
  bool ok = true;
  for (const WorkloadSpec* w : {&stuck_at, &transition}) {
    const cfs::TestSuite t = make_suite(*w, 1);
    const Reference ref = compute_reference(*w, t, 1);
    Reference flipped = ref;
    flipped.status[0] = flipped.status[0] == cfs::Detect::Hard
                            ? cfs::Detect::None
                            : cfs::Detect::Hard;
    const Rep r = run_untraced(*w, t, workdir);
    Tally good, bad;
    good.record(*w, ref, r);
    bad.record(*w, flipped, r);
    const bool pass = good.failed == 0 && bad.failed == 1;
    report += w->name + " (" + ref.kind + "): true reference " +
              (good.failed == 0 ? "accepted" : "REJECTED") +
              ", flipped reference " +
              (bad.failed == 1 ? "rejected (" + bad.why[0] + ")"
                               : std::string("ACCEPTED")) +
              "\n";
    ok = ok && pass;
  }
  return ok;
}

// -- measure -------------------------------------------------------------------

struct Samples {
  std::vector<double> setup_s, sim_s, cpu_s;
  void add(const Rep& r) {
    setup_s.push_back(r.setup_s);
    sim_s.push_back(r.sim_s);
    cpu_s.push_back(r.cpu_s);
  }
};

// Share of the traced sim_s that no span below the sim span covers: the
// sim span's self time plus the clock reads around it.
double unattributed(const SpanLog& log, std::uint64_t root, double sim_s) {
  for (const LayerRow& r : log.rows(root)) {
    if (r.name == "sim" && sim_s > 0) {
      return 1 - (r.total_s - r.self_s) / sim_s;
    }
  }
  return 1;
}

// What the repetition loop of one run collected.
struct RunLog {
  Tally tally;
  /// `copy`: the traced driver with spans off, run just before each traced
  /// repetition; that pair gives the repetition's trace.overhead.
  Samples untraced, copy, traced;
  std::vector<Layers> layers;  ///< one per traced repetition
  std::uint64_t root = 0;      ///< root span of the last traced repetition
};

// Untraced and (when `traced`) span-free copy and traced repetitions
// alternate until `seconds` are up.  The first untraced repetition warms
// caches, the allocator and the page tables: it is checked but not timed.
// At least three timed untraced, and two traced, repetitions.  Every
// repetition must match the reference and produce the same result as the
// first one; a traced one must also leave at most kMaxUnattributed of its
// sim_s outside its layer spans.
RunLog repeat(const WorkloadSpec& w, const cfs::TestSuite& suite,
              const Reference& ref, const std::string& tmp, double seconds,
              bool traced, SpanLog& log) {
  RunLog out;
  std::vector<cfs::Detect> first_status;
  std::uint64_t first_digest = 0;
  const auto record = [&](const Rep& r, std::string diff = "") {
    if (!out.tally.record(w, ref, r)) return;
    if (first_status.empty()) {
      first_status = r.status;
      first_digest = r.digest;
    } else if (r.status != first_status || r.digest != first_digest) {
      diff = "result differs from the run's first result";
    }
    if (diff.empty()) return;
    ++out.tally.failed;
    out.tally.why.push_back(diff);
  };
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t min_untraced = 4;
  const std::size_t min_traced = traced ? 2 : 0;
  std::size_t n_untraced = 0;
  std::size_t n_traced = 0;
  while (now_ns() < deadline || n_untraced < min_untraced ||
         n_traced < min_traced) {
    try {
      const Rep r = run_untraced(w, suite, tmp);
      if (n_untraced > 0) out.untraced.add(r);
      record(r);
    } catch (const std::exception& e) {
      out.tally.record_throw(e.what());
    }
    ++n_untraced;
    if (!traced) continue;
    ++n_traced;
    double copy_s = 0;
    try {
      Layers none;
      std::uint64_t no_root = 0;
      const Rep r = run_traced(w, suite, tmp, nullptr, none, no_root);
      out.copy.add(r);
      copy_s = r.sim_s;
      record(r);
    } catch (const std::exception& e) {
      out.tally.record_throw(e.what());
    }
    try {
      log.clear();
      Layers l;
      const Rep r = run_traced(w, suite, tmp, &log, l, out.root);
      const double gap = unattributed(log, out.root, r.sim_s);
      l["trace.unattributed"] = gap;
      if (copy_s > 0) l["trace.overhead"] = r.sim_s / copy_s;
      out.traced.add(r);
      out.layers.push_back(std::move(l));
      record(r, gap <= kMaxUnattributed
                    ? ""
                    : "layer spans cover only " +
                          std::to_string(100 * (1 - gap)) +
                          "% of the traced sim_s");
    } catch (const std::exception& e) {
      out.tally.record_throw(e.what());
    }
  }
  return out;
}

std::map<std::string, double> layer_metrics(const WorkloadSpec& w,
                                            const Reference& ref,
                                            const RunLog& run) {
  std::map<std::string, double> m;
  for (const Metric& pl : kPerLayer) {
    std::vector<double> v;
    for (const Layers& l : run.layers) {
      const auto it = l.find(pl.name);
      if (it != l.end()) v.push_back(it->second);
    }
    m[pl.name] = median(v);
  }
  const double sim_s = median(run.untraced.sim_s);
  if (w.driver != Driver::Engine && ref.single_gates > 0) {
    m["sim.good_dup"] =
        m["core.gates_processed"] / static_cast<double>(ref.single_gates);
  }
  if (ref.kind == "proofs") {
    m["baseline.proofs_s"] = ref.oracle_s;
    const double csim_1t = w.driver == Driver::Engine ? sim_s : ref.single_sim_s;
    m["baseline.proofs_over_csim"] = csim_1t > 0 ? ref.oracle_s / csim_1t : 0;
  }
  return m;
}

std::string unit_of(const std::string& name) {
  for (const Metric& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const Metric& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  return "";
}

std::string summary(const WorkloadSpec& w, std::uint64_t seed, bool traced,
                    const Reference& ref, const RunLog& run,
                    const std::map<std::string, double>& metrics,
                    const SpanLog& log) {
  std::ostringstream os;
  const Tally& t = run.tally;
  os << "perfbench " << w.name << " seed " << seed << " ("
     << (traced ? "traced" : "untraced") << "), reference " << ref.kind
     << " (" << (ref.ids.empty() ? "all" : std::to_string(ref.ids.size()))
     << " faults checked)\n";
  for (const std::string& s : t.why) os << "FAIL " << s << "\n";
  char line[200];
  std::snprintf(line, sizeof line, "  %-26s %18.9g %-6s (%llu of %llu runs)\n",
                "fail_rate",
                t.attempted ? static_cast<double>(t.failed) /
                                  static_cast<double>(t.attempted)
                            : 0.0,
                "ratio", static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.attempted));
  os << line;
  const std::size_t n =
      traced ? run.layers.size() : run.untraced.sim_s.size();
  for (const auto& [name, value] : metrics) {
    std::snprintf(line, sizeof line, "  %-26s %18.9g %-6s (median of %zu)\n",
                  name.c_str(), value, unit_of(name).c_str(),
                  name == "peak_rss_mb" ? std::size_t{1} : n);
    os << line;
  }
  if (!traced || run.layers.empty()) return os.str();

  const double sim_s = run.traced.sim_s.back();
  os << "traced run, last repetition (self/sim = self time / traced sim_s "
     << num(sim_s) << " s):\n";
  std::vector<LayerRow> rows = log.rows(run.root);
  std::sort(rows.begin(), rows.end(),
            [](const LayerRow& a, const LayerRow& b) {
              return a.self_s > b.self_s;
            });
  std::snprintf(line, sizeof line, "  %-26s %9s %12s %12s %9s\n", "layer",
                "count", "self_s", "total_s", "self/sim");
  os << line;
  for (const LayerRow& r : rows) {
    std::snprintf(line, sizeof line, "  %-26s %9llu %12.6f %12.6f %9.4f\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.count),
                  r.self_s, r.total_s, sim_s > 0 ? r.self_s / sim_s : 0.0);
    os << line;
  }
  os << "  trace.overhead " << num(metrics.at("trace.overhead"))
     << "  trace.unattributed " << num(metrics.at("trace.unattributed"))
     << "  baseline.proofs_over_csim "
     << num(metrics.at("baseline.proofs_over_csim")) << "\n";
  return os.str();
}

void write_result_file(const std::string& path, const Args& args,
                       const WorkloadSpec& w, const RunLog& run,
                       bool correct,
                       const std::map<std::string, double>& metrics,
                       const std::string& report) {
  std::ofstream os(path);
  auto meta = host_metadata();
  meta.emplace_back("threads", std::to_string(effective_threads(w)));
  meta.emplace_back("revision", args.get("revision", "unknown"));
  os << "{\n  \"workload\": " << quoted(w.name)
     << ",\n  \"seed\": " << args.need("seed")
     << ",\n  \"seconds\": " << args.need("seconds")
     << ",\n  \"trace\": " << args.get("trace", "0") << ",\n  \"meta\": {";
  const char* sep = "";
  for (const auto& [k, v] : meta) {
    os << sep << "\n    " << quoted(k) << ": " << quoted(v);
    sep = ",";
  }
  os << "\n  },\n  \"correct\": " << (correct ? "true" : "false")
     << ",\n  \"attempted\": " << run.tally.attempted
     << ",\n  \"failed\": " << run.tally.failed << ",\n  \"metrics\": {";
  sep = "";
  for (const auto& [name, value] : metrics) {
    os << sep << "\n    " << quoted(name) << ": {\"value\": " << num(value)
       << ", \"unit\": " << quoted(unit_of(name)) << "}";
    sep = ",";
  }
  os << "\n  },\n  \"runs\": {";
  sep = "";
  for (const auto& [key, v] :
       {std::pair{"untraced_setup_s", &run.untraced.setup_s},
        std::pair{"untraced_sim_s", &run.untraced.sim_s},
        std::pair{"untraced_cpu_s", &run.untraced.cpu_s},
        std::pair{"copy_sim_s", &run.copy.sim_s},
        std::pair{"traced_sim_s", &run.traced.sim_s}}) {
    os << sep << "\n    " << quoted(key) << ": [";
    for (std::size_t i = 0; i < v->size(); ++i) {
      os << (i ? ", " : "") << num((*v)[i]);
    }
    os << "]";
    sep = ",";
  }
  os << "\n  },\n  \"report\": " << quoted(report) << "\n}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

int measure(const Args& args) {
  const std::string wname = args.need("workload");
  const WorkloadSpec* w = find_workload(wname);
  if (w == nullptr) throw std::runtime_error("unknown workload " + wname);
  const std::uint64_t seed = parse_u64(args.need("seed"), "--seed");
  const double seconds =
      static_cast<double>(parse_u64(args.need("seconds"), "--seconds"));
  const std::string trace_arg = args.get("trace", "0");
  if (trace_arg != "0" && trace_arg != "1") {
    throw std::runtime_error("--trace must be 0 or 1");
  }
  const bool traced = trace_arg == "1";
  const std::string workdir = args.need("workdir");
  const cfs::TestSuite suite = make_suite(*w, seed);
  const std::string ref_path = reference_path(workdir, *w, seed);
  Reference ref = load_reference(ref_path);
  if (traced && w->driver == Driver::Sharded && ref.single_gates == 0) {
    // The duplication base and 1-thread time are per-layer numbers only:
    // computed on the first traced run of a seed, then cached.
    add_single_engine_run(*w, suite, ref);
    save_reference(ref_path, ref);
  }

  const std::string tmp = workdir + "/tmp-" + std::to_string(getpid());
  std::filesystem::create_directories(tmp);
  std::string selftest_report;
  const bool selftest_ok = self_test(tmp, selftest_report);
  SpanLog log(effective_threads(*w) + 1);
  const RunLog run = repeat(*w, suite, ref, tmp, seconds, traced, log);
  const double rss = peak_rss_mb();
  std::filesystem::remove_all(tmp);

  const std::map<std::string, double> metrics =
      traced ? layer_metrics(*w, ref, run)
             : std::map<std::string, double>{
                   {"setup_s", median(run.untraced.setup_s)},
                   {"sim_s", median(run.untraced.sim_s)},
                   {"cpu_s", median(run.untraced.cpu_s)},
                   {"peak_rss_mb", rss}};
  const bool correct = run.tally.failed == 0 && selftest_ok;

  const std::string report =
      summary(*w, seed, traced, ref, run, metrics, log) + "self-test " +
      (selftest_ok ? "passed" : "FAILED") + ":\n" + selftest_report;
  std::fputs(report.c_str(), stdout);
  const std::string results = workdir + "/results";
  std::filesystem::create_directories(results);
  const std::string stem = results + "/" + w->name + "-seed" +
                           std::to_string(seed) + "-trace" + trace_arg;
  write_result_file(stem + ".json", args, *w, run, correct, metrics, report);
  if (traced && !run.layers.empty()) log.write(stem + ".spans.json");

  // The contract line: last on stdout.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.failed));
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s%s: {\"value\": %s, \"unit\": %s}", sep,
                quoted(name).c_str(), num(value).c_str(),
                quoted(unit_of(name)).c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

int reference(const Args& args) {
  const std::string wname = args.need("workload");
  const WorkloadSpec* w = find_workload(wname);
  if (w == nullptr) throw std::runtime_error("unknown workload " + wname);
  const std::uint64_t seed = parse_u64(args.need("seed"), "--seed");
  const std::string workdir = args.need("workdir");
  std::filesystem::create_directories(workdir + "/ref");
  const Reference r = compute_reference(*w, make_suite(*w, seed), seed);
  save_reference(reference_path(workdir, *w, seed), r);
  std::printf("reference %s seed %llu: %s in %.3f s\n", w->name.c_str(),
              static_cast<unsigned long long>(seed), r.kind.c_str(),
              r.oracle_s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::string mode = args.need("mode");
    if (mode == "measure") return measure(args);
    if (mode == "reference") return reference(args);
    if (mode == "self-test") {
      const std::string tmp =
          args.need("workdir") + "/tmp-" + std::to_string(getpid());
      std::filesystem::create_directories(tmp);
      std::string report;
      const bool ok = self_test(tmp, report);
      std::filesystem::remove_all(tmp);
      std::fputs(report.c_str(), stdout);
      std::printf("self-test %s\n", ok ? "passed" : "FAILED");
      return ok ? 0 : 1;
    }
    throw std::runtime_error("--mode must be measure, reference or self-test");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
