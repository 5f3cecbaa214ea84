// Reproduces Figure 10 (paper §6.5): CAPS performance and scalability on Q2-join, a
// workload with both compute-intensive and state-intensive tasks.
//
//   (a) placement-search time until the first plan satisfying the thresholds, for problem
//       sizes of 16..256 tasks (slots == tasks) under three threshold vectors:
//       alpha1 (cpu .08 / io .15 / net .6), alpha2 (.15/.25/.8), alpha3 (.25/.3/.9).
//       Paper: tens of milliseconds, <= ~100 ms at 256 tasks; tighter thresholds cost more.
//   (b) threshold auto-tuning time for clusters of 8..16 workers with 4..64 slots each
//       (32..1024 tasks), 1 s per-probe budget (the paper used 5 s), every probe on one
//       thread. Paper: 1.16 s at 64 tasks up to 125 s at 1024 tasks.
//
// The paper runs this on a 20-core CloudLab c220g2 with 20 search threads; here every
// search runs on one thread (DESIGN.md §6).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/perf_json.h"
#include "src/caps/auto_tuner.h"
#include "src/caps/cost_model.h"
#include "src/caps/search.h"
#include "src/common/logging.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"

namespace capsys {
namespace {

// CAPSYS_BENCH_JSON mode: one quick find-first measurement (64 tasks, mid threshold) for
// the perf-regression harness instead of the full figure sweep.
int RunPerfJson() {
  QuerySpec q = BuildScaledQ2Join(64);
  Cluster cluster(16, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  double best_ms = 1e300;
  double nodes_per_s = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    SearchOptions options;
    options.alpha = ResourceVector{0.50, 0.35, 0.70};
    options.find_first = true;
    options.timeout_s = 10.0;
    CapsSearch search(model, options);
    SearchResult r = search.Run();
    best_ms = std::min(best_ms, r.stats.elapsed_s * 1e3);
    nodes_per_s = std::max(nodes_per_s, r.stats.nodes / r.stats.elapsed_s);
  }
  benchjson::Merge({{"fig10a_find_first_64_ms", best_ms},
                    {"fig10a_nodes_per_s", nodes_per_s}});
  return 0;
}

int Main() {
  InitLoggingFromEnv();
  if (benchjson::Enabled()) {
    return RunPerfJson();
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("=== Figure 10a: placement-search time vs problem size (find-first) ===\n\n");
  struct Alpha {
    const char* name;
    ResourceVector alpha;
  };
  // Empirically-obtained thresholds pruning at different granularity (the paper's alpha
  // vectors, re-derived for our calibrated Q2-join demands via threshold auto-tuning).
  Alpha alphas[3] = {{"alpha1 (.35/.20/.50)", {0.35, 0.20, 0.50}},
                     {"alpha2 (.50/.35/.70)", {0.50, 0.35, 0.70}},
                     {"alpha3 (.70/.50/.90)", {0.70, 0.50, 0.90}}};
  std::printf("%-10s %-24s %-14s %-12s %-10s\n", "tasks", "thresholds", "time (ms)", "nodes",
              "found");
  for (int tasks : {16, 32, 64, 128, 256}) {
    QuerySpec q = BuildScaledQ2Join(tasks);
    Cluster cluster(tasks / 4, WorkerSpec::R5dXlarge(4));
    PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
    auto rates = PropagateRates(q.graph, q.source_rates);
    CostModel model(graph, cluster, TaskDemands(graph, rates));
    for (const auto& a : alphas) {
      SearchOptions options;
      options.alpha = a.alpha;
      options.find_first = true;
      options.timeout_s = 10.0;
      CapsSearch search(model, options);
      SearchResult r = search.Run();
      std::printf("%-10d %-24s %-14.2f %-12llu %s\n", tasks, a.name, r.stats.elapsed_s * 1e3,
                  static_cast<unsigned long long>(r.stats.nodes), r.found ? "yes" : "NO");
    }
  }
  std::printf("paper: satisfying plans found within tens of ms, <= ~100 ms at 256 tasks.\n\n");

  std::printf("=== Figure 10b: threshold auto-tuning time ===\n\n");
  std::printf("%-10s %-14s %-10s %-14s %-30s %-10s\n", "workers", "slots/worker", "tasks",
              "time (s)", "alpha", "feasible");
  for (int workers : {8, 16}) {
    for (int slots : {4, 16, 64}) {
      int tasks = workers * slots;
      QuerySpec q = BuildScaledQ2Join(tasks);
      Cluster cluster(workers, WorkerSpec::R5dXlarge(slots));
      PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
      auto rates = PropagateRates(q.graph, q.source_rates);
      CostModel model(graph, cluster, TaskDemands(graph, rates));
      AutoTuneOptions options;
      options.timeout_s = 10.0 + tasks / 8.0;
      // Wall-clock safety stop per probe (the paper used 5 s timeouts). Every probe ends at
      // its node budget first, so α, and the row, does not depend on the machine.
      options.probe_timeout_s = 1.0;
      AutoTuneResult r = AutoTuneThresholds(model, options);
      std::printf("%-10d %-14d %-10d %-14.2f %-30s %s\n", workers, slots, tasks, r.elapsed_s,
                  r.alpha.ToString().c_str(), r.feasible ? "yes" : "NO");
    }
  }
  std::printf("paper: 1.16 s for 64 tasks (4x16) up to 125 s for 1024 tasks (16x64).\n");
  return 0;
}

}  // namespace
}  // namespace capsys

int main() { return capsys::Main(); }
