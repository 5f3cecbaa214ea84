#include "src/caps/partitioned.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "src/caps/plan.h"
#include "src/common/logging.h"
#include "src/common/str.h"

namespace capsys {
namespace {

constexpr double kEps = 1e-12;

}  // namespace

std::string PartitionedResult::ToString() const {
  return Sprintf("found=%d partitions=%zu elapsed=%.3fs", found ? 1 : 0, partitions.size(),
                 elapsed_s);
}

PartitionedResult PartitionedPlacementSearch(const PhysicalGraph& graph,
                                             const Cluster& cluster,
                                             const std::vector<ResourceVector>& demands,
                                             const PartitionedOptions& options) {
  auto start = std::chrono::steady_clock::now();
  const LogicalGraph& logical = graph.logical();
  int k = std::clamp(options.num_partitions, 1, cluster.num_workers());
  PartitionedResult result;

  // --- 1. Partition operators, contiguous in topological order, balanced by normalized
  // demand --------------------------------------------------------------------------------
  CostModel full_model(graph, cluster, demands);
  auto op_weight = [&](OperatorId o) {
    ResourceVector d = full_model.OperatorDemand(o);
    double weight = 0.0;
    for (Resource r : kAllResources) {
      double scale = std::max(full_model.l_max()[r], kEps);
      weight = std::max(weight, d[r] / scale);
    }
    return weight;
  };
  auto topo = logical.TopologicalOrder();
  double total_weight = 0.0;
  for (OperatorId o : topo) {
    total_weight += op_weight(o);
  }
  double per_partition = total_weight / k;
  std::vector<std::vector<OperatorId>> partitions;
  std::vector<OperatorId> current;
  double acc = 0.0;
  for (OperatorId o : topo) {
    current.push_back(o);
    acc += op_weight(o);
    if (acc >= per_partition - kEps &&
        static_cast<int>(partitions.size()) < k - 1) {
      partitions.push_back(std::move(current));
      current.clear();
      acc = 0.0;
    }
  }
  if (!current.empty()) {
    partitions.push_back(std::move(current));
  }
  result.partitions = partitions;

  // --- 2. Assign disjoint worker ranges proportional to each partition's slot need --------
  int slots_per_worker = cluster.slots_per_worker();
  std::vector<int> tasks_per_partition(partitions.size(), 0);
  for (size_t pi = 0; pi < partitions.size(); ++pi) {
    for (OperatorId o : partitions[pi]) {
      tasks_per_partition[pi] += logical.op(o).parallelism;
    }
  }
  std::vector<int> workers_per_partition(partitions.size(), 0);
  int assigned_workers = 0;
  for (size_t pi = 0; pi < partitions.size(); ++pi) {
    workers_per_partition[pi] =
        std::max(1, (tasks_per_partition[pi] + slots_per_worker - 1) / slots_per_worker);
    assigned_workers += workers_per_partition[pi];
  }
  // If the per-partition worker ceilings exceed the cluster (rounding losses), merge
  // adjacent partitions until they fit — in the limit this degenerates to whole-graph CAPS.
  while (assigned_workers > cluster.num_workers() && partitions.size() > 1) {
    // Merge the pair of adjacent partitions with the smallest combined task count.
    size_t best = 0;
    int best_tasks = INT32_MAX;
    for (size_t pi = 0; pi + 1 < partitions.size(); ++pi) {
      int combined = tasks_per_partition[pi] + tasks_per_partition[pi + 1];
      if (combined < best_tasks) {
        best_tasks = combined;
        best = pi;
      }
    }
    partitions[best].insert(partitions[best].end(), partitions[best + 1].begin(),
                            partitions[best + 1].end());
    partitions.erase(partitions.begin() + static_cast<long>(best) + 1);
    tasks_per_partition[best] += tasks_per_partition[best + 1];
    tasks_per_partition.erase(tasks_per_partition.begin() + static_cast<long>(best) + 1);
    workers_per_partition.assign(partitions.size(), 0);
    assigned_workers = 0;
    for (size_t pi = 0; pi < partitions.size(); ++pi) {
      workers_per_partition[pi] =
          std::max(1, (tasks_per_partition[pi] + slots_per_worker - 1) / slots_per_worker);
      assigned_workers += workers_per_partition[pi];
    }
  }
  result.partitions = partitions;
  if (assigned_workers > cluster.num_workers()) {
    result.elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;  // infeasible even as a single partition (should not happen)
  }
  // Distribute spare workers by partition weight (more room to balance heavy partitions).
  int spare = cluster.num_workers() - assigned_workers;
  for (int s = 0; s < spare; ++s) {
    size_t heaviest = 0;
    double best = -1.0;
    for (size_t pi = 0; pi < partitions.size(); ++pi) {
      double load = static_cast<double>(tasks_per_partition[pi]) /
                    (workers_per_partition[pi] * slots_per_worker);
      if (load > best) {
        best = load;
        heaviest = pi;
      }
    }
    ++workers_per_partition[heaviest];
  }

  // --- 3. Solve each partition on its worker range -----------------------------------------
  Placement plan(graph.num_tasks());
  WorkerId worker_offset = 0;
  for (size_t pi = 0; pi < partitions.size(); ++pi) {
    // Sub-graph: the partition's operators with their intra-partition edges.
    LogicalGraph sub(logical.name() + Sprintf("/p%zu", pi));
    std::vector<OperatorId> to_sub(static_cast<size_t>(logical.num_operators()), kInvalidId);
    for (OperatorId o : partitions[pi]) {
      to_sub[static_cast<size_t>(o)] = sub.AddOperator(
          logical.op(o).name, logical.op(o).kind, logical.op(o).profile,
          logical.op(o).parallelism);
    }
    for (const auto& e : logical.edges()) {
      OperatorId f = to_sub[static_cast<size_t>(e.from)];
      OperatorId t = to_sub[static_cast<size_t>(e.to)];
      if (f != kInvalidId && t != kInvalidId) {
        sub.AddEdge(f, t, e.scheme);
      }
    }
    PhysicalGraph sub_graph = PhysicalGraph::Expand(sub);
    Cluster sub_cluster(workers_per_partition[pi], cluster.worker(worker_offset).spec);
    // Sub-demands: copy per-task demands (tasks of one operator are identical, so the
    // first global task of the operator is representative).
    std::vector<ResourceVector> sub_demands(static_cast<size_t>(sub_graph.num_tasks()));
    for (OperatorId o : partitions[pi]) {
      OperatorId so = to_sub[static_cast<size_t>(o)];
      TaskId global = graph.TasksOf(o).front();
      for (TaskId t : sub_graph.TasksOf(so)) {
        sub_demands[static_cast<size_t>(t)] = demands[static_cast<size_t>(global)];
      }
    }

    CostModel sub_model(sub_graph, sub_cluster, sub_demands);
    PlannedPlacement planned =
        PlanPlacement(sub_model, std::nullopt, options.autotune, /*find_first_above_tasks=*/0);
    result.alphas.push_back(planned.alpha);
    const Placement& sub_plan = planned.placement;

    // Splice into the global plan.
    for (OperatorId o : partitions[pi]) {
      OperatorId so = to_sub[static_cast<size_t>(o)];
      const auto& global_tasks = graph.TasksOf(o);
      const auto& sub_tasks = sub_graph.TasksOf(so);
      CAPSYS_CHECK(global_tasks.size() == sub_tasks.size());
      for (size_t i = 0; i < global_tasks.size(); ++i) {
        plan.Assign(global_tasks[i], worker_offset + sub_plan.WorkerOf(sub_tasks[i]));
      }
    }
    worker_offset += workers_per_partition[pi];
  }

  result.found = plan.Validate(graph, cluster).empty();
  if (result.found) {
    result.placement = plan;
  }
  result.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace capsys
