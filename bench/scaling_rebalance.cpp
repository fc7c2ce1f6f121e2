// Static vs dynamic partitioning across shard counts: the round-robin
// partition held for the whole run against the same run with live-element
// rebalancing enabled (sim/sharded_sim.h, --rebalance).
//
// Every row is verified against the single-threaded reference: identical
// hard/potential coverage regardless of policy -- rebalancing only moves
// faults between shards, never changes what they compute.
//
// Two times are reported per row:
//   cpu   -- wall-clock of the run on THIS host.  Only meaningful as a
//            static-vs-dynamic comparison when the host actually has the
//            cores: on a single-core machine the shards run sequentially,
//            wall-clock measures total work, and a repartition is pure
//            overhead (the expected ratio is <= 1).
//   crit  -- the critical path: sum over vectors of the slowest shard's
//            apply_vector latency, from the per-vector timeline samples.
//            Per-shard latency measures per-shard *work* even when the
//            shards are time-sliced onto one core, so this is the
//            host-independent model of multicore wall-clock -- the
//            quantity rebalancing actually shrinks.
// Rows carry hw_threads so the gate (tools/check_scaling_gate.py) asserts
// the wall-clock win only on hosts that can exhibit it and the
// critical-path win everywhere.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "common.h"
#include "faults/fault.h"
#include "gen/iscas_profiles.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "obs/timeline.h"

int main(int argc, char** argv) {
  using namespace cfs;
  bench::JsonReport json(argc, argv, "scaling_rebalance");
  const unsigned hw = std::thread::hardware_concurrency();
  const bool tiny = bench::suite().size() <= 5;
  const std::size_t nvec = tiny ? 96 : 256;
  std::printf("Static vs dynamic partitioning: csim-MV sharded, s5378, "
              "%zu random vectors (host reports %u hardware threads)\n\n",
              nvec, hw);

  const Circuit c = make_benchmark("s5378");
  const FaultUniverse u = FaultUniverse::all_stuck_at(c);
  const PatternSet p = PatternSet::random(c.inputs().size(), nvec, 9);
  const TestSuite suite(p);

  const RunResult ref =
      run_csim(c, u, p, CsimVariant::MV, bench::kFfInit);

  RebalancePolicy dynamic_policy;
  dynamic_policy.mode = RebalancePolicy::Mode::Auto;
  dynamic_policy.threshold = 1.10;
  dynamic_policy.cooldown = 8;

  // Three repetitions per configuration, medians reported: the per-run
  // wall noise on a shared host dwarfs the effect under test.
  constexpr int kReps = 3;

  Table t({"thr", "mode", "cpu", "crit", "cp speedup", "rebal", "cvg%"});
  bool ok = true;
  for (unsigned k : {1u, 2u, 4u, 8u}) {
    double static_cpu = 0.0, static_crit = 0.0;
    for (const bool dynamic : {false, true}) {
      const RebalancePolicy rp = dynamic ? dynamic_policy : RebalancePolicy{};
      std::vector<double> cpus, crits;
      RunResult r;
      for (int rep = 0; rep < kReps; ++rep) {
        // The timeline (per-vector sampling on both modes alike) supplies
        // the per-shard latencies the critical path is assembled from.
        obs::Timeline tl(4096, 1);
        r = run_csim_sharded(c, u, suite, CsimVariant::MV, k,
                             bench::kFfInit,
                             /*drop_detected=*/true,
                             /*trace=*/nullptr, &tl, rp);
        if (r.cov.hard != ref.cov.hard ||
            r.cov.potential != ref.cov.potential) {
          std::printf("!! x%u %s disagrees with the single-threaded "
                      "engine\n", k, dynamic ? "dynamic" : "static");
          ok = false;
        }
        std::uint64_t crit_us = 0;
        for (std::size_t i = 0; i < tl.size(); ++i) {
          std::uint64_t slowest = 0;
          for (const obs::ShardSample& sh : tl.at(i).shards) {
            slowest = std::max(slowest, sh.latency_us);
          }
          crit_us += slowest;
        }
        cpus.push_back(r.cpu_s);
        crits.push_back(static_cast<double>(crit_us) / 1e6);
      }
      std::sort(cpus.begin(), cpus.end());
      std::sort(crits.begin(), crits.end());
      const double cpu_s = cpus[kReps / 2];
      const double crit_s = crits[kReps / 2];
      if (!dynamic) {
        static_cpu = cpu_s;
        static_crit = crit_s;
      }
      const double cp_speedup = dynamic ? static_crit / crit_s : 1.0;
      t.row({dynamic ? "" : fmt_count(k), dynamic ? "dynamic" : "static",
             fmt_fixed(cpu_s, 3), fmt_fixed(crit_s, 3),
             fmt_fixed(cp_speedup, 2), fmt_count(r.stats.rebalances),
             fmt_fixed(r.cov.pct(), 2)});
      json.begin_row();
      json.field("circuit", "s5378");
      json.field("faults", static_cast<std::uint64_t>(u.size()));
      json.field("threads", std::uint64_t{k});
      json.field("shards", std::uint64_t{r.threads});
      json.field("mode", dynamic ? "dynamic" : "static");
      json.field("hw_threads", std::uint64_t{hw});
      json.field("vectors", static_cast<std::uint64_t>(p.size()));
      json.field("cpu_s", cpu_s);
      json.field("critical_path_s", crit_s);
      json.field("speedup_vs_static",
                 dynamic ? static_cpu / cpu_s : 1.0);
      json.field("cp_speedup_vs_static", cp_speedup);
      json.field("rebalances", r.stats.rebalances);
      json.field("faults_migrated", r.stats.faults_migrated);
      json.field("elements_migrated", r.stats.elements_migrated);
      json.field("coverage_pct", r.cov.pct());
      json.field("hard", static_cast<std::uint64_t>(r.cov.hard));
      json.end_row();
    }
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("crit is the summed slowest-shard latency (the multicore "
              "wall-clock model); cp speedup is same-shard-count\n"
              "static crit over dynamic crit.  All rows verified "
              "bit-identical coverage.\n");
  return ok ? 0 : 1;
}
