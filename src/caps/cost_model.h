// The CAPS cost model (paper §4.2).
//
// A placement plan's cost vector C = [C_cpu, C_io, C_net] captures the resource imbalance
// of the cluster as the distance of the bottleneck worker's load from the ideal
// perfectly-balanced load, normalized by the worst possible imbalance:
//
//   C_i(f) = (L_i(f) - L_i_min) / (L_i_max - L_i_min)      (Eq. 4), or 0 when degenerate
//
//   L_i(f)   = max over workers of the summed task loads (Eq. 5)
//   L_i_min  = total load / |V_w|  for cpu and io (Eq. 6);  0 for net
//   L_i_max  = summed load of the s most intensive tasks T_i (Eq. 7)
//
// Network loads use Eq. 8: only the cross-worker fraction |D_r(f,t)| / |D(t)| of a task's
// output counts toward its worker's outbound load.
#ifndef SRC_CAPS_COST_MODEL_H_
#define SRC_CAPS_COST_MODEL_H_

#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/types.h"
#include "src/dataflow/placement.h"

namespace capsys {

struct CostModelOptions {
  // When true, worker loads are divided by the worker's capacity per dimension before the
  // imbalance is measured. The paper's model balances absolute loads (correct for its
  // homogeneous clusters); on mixed hardware, capacity normalization makes "balanced" mean
  // "equal utilization", so larger workers carry proportionally more (extension).
  bool normalize_by_capacity = false;
};

class CostModel {
 public:
  // `demands` gives U(t) = [U_cpu, U_io, U_net] for every task (Table 1). U_net is the
  // task's full output data rate in bytes/s; the model applies the remote fraction itself.
  CostModel(const PhysicalGraph& graph, const Cluster& cluster,
            std::vector<ResourceVector> demands, CostModelOptions options = {});

  // Cost vector of a complete placement plan (Eq. 4 per dimension).
  ResourceVector Cost(const Placement& f) const;

  // Per-worker load vectors under `f` (cpu/io by Eq. 5, net by Eq. 8).
  std::vector<ResourceVector> WorkerLoads(const Placement& f) const;

  // Threshold-pruning bound (Eq. 10): the max per-worker load allowed per dimension for a
  // plan to satisfy C_i(f) <= alpha_i. Dimensions with alpha_i >= 1 are effectively
  // unconstrained (C_i <= 1 always holds).
  ResourceVector LoadBound(const ResourceVector& alpha) const;

  // Converts a bound back to the cost scale: C_i corresponding to worker load L_i.
  double CostOfLoad(Resource r, double load) const;

  const ResourceVector& l_min() const { return l_min_; }
  const ResourceVector& l_max() const { return l_max_; }
  const std::vector<ResourceVector>& demands() const { return demands_; }
  const PhysicalGraph& graph() const { return graph_; }
  const Cluster& cluster() const { return cluster_; }

  // Aggregate demand of all tasks of one operator, used to rank operators for the
  // search-reordering optimization (§4.4.2).
  ResourceVector OperatorDemand(OperatorId op) const;

  // Per-dimension factor a task demand is multiplied by when accumulated onto worker `w`
  // (all ones in the paper-faithful absolute model; 1/capacity when normalizing).
  const ResourceVector& WorkerScale(WorkerId w) const {
    return worker_scale_[static_cast<size_t>(w)];
  }
  // Worker `w`'s capacity per dimension in the units of WorkerLoads: its spec capacities
  // times WorkerScale(w), so all ones under capacity normalization.
  const ResourceVector& Capacity(WorkerId w) const {
    return worker_capacity_[static_cast<size_t>(w)];
  }
  // Utilization of worker `w` at `load` (in the units of WorkerLoads): the largest share of
  // its capacity the load takes in any dimension.
  double Utilization(WorkerId w, const ResourceVector& load) const;

  const CostModelOptions& options() const { return options_; }

 private:
  const PhysicalGraph& graph_;
  const Cluster& cluster_;
  std::vector<ResourceVector> demands_;
  CostModelOptions options_;
  std::vector<ResourceVector> worker_scale_;
  std::vector<ResourceVector> worker_capacity_;
  ResourceVector l_min_;
  ResourceVector l_max_;
};

// Scalarization of the cost vector: lexicographic (max component, sum of components).
// Returns true when `a` is strictly better than `b`.
bool BetterCost(const ResourceVector& a, const ResourceVector& b);

// Predicted bottleneck utilization of a plan: the largest CostModel::Utilization over
// workers. The cost vector only measures *relative* imbalance per dimension; this
// capacity-aware score says which imbalance actually limits throughput. It reads the same
// under the absolute and the capacity-normalized model.
double MaxUtilization(const CostModel& model, const Placement& plan);

}  // namespace capsys

#endif  // SRC_CAPS_COST_MODEL_H_
