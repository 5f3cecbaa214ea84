// Extension bench: heterogeneous clusters and capacity normalization.
//
// The paper's cost model balances *absolute* loads, which is exactly right for its
// homogeneous clusters. On mixed hardware, equal absolute loads over-burden small workers.
// This bench deploys Q1-sliding on a cluster of 2 big (m5d.2xlarge) + 4 small (r5d.xlarge)
// workers. Its 19 tasks are searched by branch and bound, whose pick ranks plans by their
// utilization of each worker's own capacity under either cost model (PlanPlacement). It
// compares:
//   - CAPS with the paper's absolute-load model,
//   - CAPS with the capacity-normalized model (extension),
//   - Flink evenly (count balancing).
#include <cstdio>

#include "src/caps/plan.h"
#include "src/baselines/flink_strategies.h"
#include "src/common/logging.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

Placement SolveWith(const CostModel& model) {
  return PlanPlacement(model, std::nullopt, AutoTuneOptions{}, /*search_threads=*/1,
                       /*find_first_above_tasks=*/1 << 30)
      .placement;
}

int Main() {
  InitLoggingFromEnv();
  std::vector<WorkerSpec> specs = {WorkerSpec::M5d2xlarge(8), WorkerSpec::M5d2xlarge(8),
                                   WorkerSpec::R5dXlarge(4), WorkerSpec::R5dXlarge(4),
                                   WorkerSpec::R5dXlarge(4), WorkerSpec::R5dXlarge(4)};
  Cluster cluster(std::move(specs));
  QuerySpec q = BuildQ1Sliding();
  q.ScaleRates(2.3);  // sized so the small workers' disks are the scarce resource
  q.graph.SetParallelism({2, 6, 10, 1});
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  auto demands = TaskDemands(graph, rates);

  std::printf("=== Heterogeneous cluster: Q1-sliding on 2x m5d.2xlarge + 4x r5d.xlarge ===\n");
  std::printf("target %.0f rec/s, %d tasks on %d slots\n\n", q.TotalTargetRate(),
              graph.num_tasks(), cluster.total_slots());

  auto evaluate = [&](const char* name, const Placement& plan) {
    FluidSimulator sim(graph, cluster, plan);
    for (const auto& [op, r] : q.source_rates) {
      sim.SetSourceRate(op, r);
    }
    QuerySummary s = sim.RunMeasured(60, 120);
    // Window tasks (op 2) on big vs small workers.
    int on_big = 0;
    for (TaskId t : graph.TasksOf(2)) {
      on_big += plan.WorkerOf(t) < 2 ? 1 : 0;
    }
    std::printf("%-18s throughput %-8.0f bp %5.1f%%  window tasks on big workers: %d/10\n",
                name, s.throughput, s.backpressure * 100.0, on_big);
  };

  {
    CostModel absolute(graph, cluster, demands);
    evaluate("caps (absolute)", SolveWith(absolute));
  }
  {
    CostModelOptions options;
    options.normalize_by_capacity = true;
    CostModel normalized(graph, cluster, demands, options);
    evaluate("caps (capacity)", SolveWith(normalized));
  }
  {
    Rng rng(2);
    evaluate("evenly", FlinkEvenlyPlacement(graph, cluster, rng));
  }
  std::printf("\nexpected: both CAPS rows sustain the target. The pick ranks plans by\n"
              "their utilization of each worker's own capacity under either cost model,\n"
              "so both route more of the I/O-heavy window tasks to the big workers than\n"
              "count balancing does, and evenly falls short.\n");
  return 0;
}

}  // namespace
}  // namespace capsys

int main() { return capsys::Main(); }
