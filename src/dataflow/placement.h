// Task placement plan f : V_p -> V_w (paper §2.1, §4.1): maps every task in the physical
// execution graph to a worker, with at most `slots` tasks per worker.
#ifndef SRC_DATAFLOW_PLACEMENT_H_
#define SRC_DATAFLOW_PLACEMENT_H_

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/types.h"
#include "src/dataflow/physical_graph.h"

namespace capsys {

class Placement {
 public:
  Placement() = default;
  // Creates an unassigned placement for `num_tasks` tasks.
  explicit Placement(int num_tasks)
      : assignment_(static_cast<size_t>(num_tasks), kInvalidId) {}
  explicit Placement(std::vector<WorkerId> assignment) : assignment_(std::move(assignment)) {}

  int num_tasks() const { return static_cast<int>(assignment_.size()); }

  WorkerId WorkerOf(TaskId t) const { return assignment_[static_cast<size_t>(t)]; }
  void Assign(TaskId t, WorkerId w) { assignment_[static_cast<size_t>(t)] = w; }

  // Validates constraints (1) and (2) of §4.1: every task assigned exactly one worker and
  // no worker exceeds its slot count. Returns an error string or empty when valid.
  std::string Validate(const PhysicalGraph& graph, const Cluster& cluster) const;

  // Number of tasks per worker.
  std::vector<int> LoadByWorker(const Cluster& cluster) const;

  // |D_r(f, t)| / |D(t)|: the fraction of task t's downstream physical channels that cross
  // workers under this placement (Table 1 / Eq. 8). Returns 0 for sink tasks.
  double RemoteFraction(const PhysicalGraph& graph, TaskId t) const;

  // Maximum number of tasks of `op` co-located on any single worker — the "co-location
  // degree" the paper's §3 study varies.
  int ColocationDegree(const PhysicalGraph& graph, const Cluster& cluster, OperatorId op) const;

  // Canonical key identifying the plan up to worker renaming *within the same spec*:
  // because workers are homogeneous, two plans that differ only by permuting workers are
  // equivalent (the duplicate-elimination insight of §4.3). The key is the multiset of
  // per-worker task-operator multisets.
  std::string CanonicalKey(const PhysicalGraph& graph, const Cluster& cluster) const;

  const std::vector<WorkerId>& assignment() const { return assignment_; }

  std::string ToString(const PhysicalGraph& graph) const;

  friend bool operator==(const Placement& a, const Placement& b) {
    return a.assignment_ == b.assignment_;
  }

 private:
  std::vector<WorkerId> assignment_;  // indexed by TaskId
};

}  // namespace capsys

#endif  // SRC_DATAFLOW_PLACEMENT_H_
