// Partitioned placement search (paper §6.5.2 future work: "Another approach would be to
// first partition the dataflow graph and apply CAPS per partition").
//
// For very large deployments, the graph's operators are split into demand-balanced
// partitions (contiguous in topological order, so chains stay together), each partition is
// assigned a disjoint worker subset sized to its share of the load, and auto-tuning + CAPS
// run independently per partition. The resulting sub-placements are spliced into one plan.
// Cross-partition channels are remote by construction, so the combined plan's network cost
// is conservative; in exchange, both auto-tuning and search costs drop from the full
// problem's size to the largest partition's.
#ifndef SRC_CAPS_PARTITIONED_H_
#define SRC_CAPS_PARTITIONED_H_

#include <string>
#include <vector>

#include "src/caps/auto_tuner.h"
#include "src/caps/search.h"

namespace capsys {

struct PartitionedOptions {
  int num_partitions = 2;
  AutoTuneOptions autotune;
  // Each partition is one PlanPlacement in find-first mode: alpha comes from per-partition
  // tuning, and the greedy incumbent wins over the first plan when its utilization is lower.
  int num_threads = 2;
};

struct PartitionedResult {
  bool found = false;
  Placement placement;  // over the full physical graph / cluster
  double elapsed_s = 0.0;
  std::vector<std::vector<OperatorId>> partitions;  // operator ids per partition
  std::vector<ResourceVector> alphas;               // tuned thresholds per partition

  std::string ToString() const;
};

// Searches a placement for `graph` on `cluster` with per-task `demands` (same inputs as
// CostModel), partitioning the problem first. Requires at least one worker per partition.
PartitionedResult PartitionedPlacementSearch(const PhysicalGraph& graph,
                                             const Cluster& cluster,
                                             const std::vector<ResourceVector>& demands,
                                             const PartitionedOptions& options = {});

}  // namespace capsys

#endif  // SRC_CAPS_PARTITIONED_H_
