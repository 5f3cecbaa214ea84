// Extension bench (paper §6.5.2 future work): graph-partitioned CAPS for very large
// deployments. Compares whole-graph auto-tuning + find-first search against the partitioned
// variant (auto-tune and search per partition on disjoint worker subsets) on Q2-join scaled
// up to 1024 tasks, reporting wall time and resulting plan quality (predicted bottleneck
// utilization of the combined plan).
#include <chrono>
#include <cstdio>

#include "src/caps/auto_tuner.h"
#include "src/common/str.h"
#include "src/caps/cost_model.h"
#include "src/caps/partitioned.h"
#include "src/caps/search.h"
#include "src/common/logging.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"

namespace capsys {
namespace {

double MaxCost(const CostModel& model, const Placement& plan) {
  return model.Cost(plan).Max();
}

int Main() {
  InitLoggingFromEnv();
  std::printf("=== Partitioned CAPS (future-work extension): Q2-join at scale ===\n\n");
  std::printf("%-8s %-14s %-12s %-12s %-14s\n", "tasks", "method", "time (s)", "max-cost",
              "feasible");
  for (int tasks : {128, 256, 512, 1024}) {
    QuerySpec q = BuildScaledQ2Join(tasks);
    Cluster cluster(tasks / 16 + 4, WorkerSpec::R5dXlarge(16));  // slack for the ceilings
    PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
    auto rates = PropagateRates(q.graph, q.source_rates);
    auto demands = TaskDemands(graph, rates);
    CostModel model(graph, cluster, demands);

    // Whole-graph: auto-tune then find-first. The search runs on one thread: a parallel
    // find-first stops at whichever leaf a thread reaches first, so the max-cost column
    // would change from run to run.
    {
      auto t0 = std::chrono::steady_clock::now();
      AutoTuneOptions tune;
      tune.timeout_s = 60.0;
      tune.probe_timeout_s = 1.0;
      AutoTuneResult tuned = AutoTuneThresholds(model, tune);
      SearchOptions options;
      options.alpha = tuned.feasible ? tuned.alpha : ResourceVector{1.0, 1.0, 1.0};
      options.find_first = true;
      options.timeout_s = 10.0;
      SearchResult r = CapsSearch(model, options).Run();
      double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      std::printf("%-8d %-14s %-12.2f %-12.3f %s\n", tasks, "whole-graph", elapsed,
                  r.found ? MaxCost(model, r.best.placement) : -1.0, r.found ? "yes" : "NO");
    }
    // Partitioned, K = 2 and 4.
    for (int k : {2, 4}) {
      PartitionedOptions options;
      options.num_partitions = k;
      options.autotune.timeout_s = 30.0;
      options.autotune.probe_timeout_s = 0.5;
      PartitionedResult r = PartitionedPlacementSearch(graph, cluster, demands, options);
      std::printf("%-8d %-14s %-12.2f %-12.3f %s\n", tasks, Sprintf("K=%d", k).c_str(),
                  r.elapsed_s, r.found ? MaxCost(model, r.placement) : -1.0,
                  r.found ? "yes" : "NO");
    }
  }
  std::printf("\nexpected: partitioning trades a modest cost increase (cross-partition\n"
              "channels become remote) for a large reduction in tuning+search time on the\n"
              "biggest instances.\n");
  return 0;
}

}  // namespace
}  // namespace capsys

int main() { return capsys::Main(); }
