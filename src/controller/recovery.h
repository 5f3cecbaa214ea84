// Degraded-mode recovery planning (robustness extension): given the subset of workers that
// are still usable, compute a plan that keeps the query running. When the survivors can
// host the query at its current parallelism this is a plain re-placement; when they cannot,
// FitParallelism shrinks the widest operators until the plan fits (graceful degradation at
// reduced capacity); when even parallelism-1 does not fit, the planner
// reports a structured kUnplaceable outcome instead of aborting — the caller keeps the
// survivors running and retries when workers return.
#ifndef SRC_CONTROLLER_RECOVERY_H_
#define SRC_CONTROLLER_RECOVERY_H_

#include <map>
#include <string>
#include <vector>

#include "src/controller/deployment.h"

namespace capsys {

enum class RecoveryOutcome : int {
  kRecoveredFull = 0,   // original parallelism fits the usable workers
  kRecoveredDegraded,   // parallelism was down-scaled to fit (reduced capacity)
  kUnplaceable,         // not even parallelism 1 per operator fits the usable workers
};

const char* RecoveryOutcomeName(RecoveryOutcome outcome);

struct RecoveryPlan {
  RecoveryOutcome outcome = RecoveryOutcome::kUnplaceable;
  LogicalGraph graph;       // possibly down-scaled parallelism (empty when unplaceable)
  PhysicalGraph physical;
  Placement placement;      // global worker ids over the *full* cluster
  int slots_before = 0;     // total parallelism of the requested graph
  // Estimated aggregate source rate the planned parallelism sustains (capped at the
  // target); the throughput bar a degraded deployment is judged against.
  double sustainable_rate = 0.0;

  bool Placeable() const { return outcome != RecoveryOutcome::kUnplaceable; }
  std::string ToString() const;
};

// Estimated aggregate source rate `graph` (at its current parallelism) sustains, given
// per-operator standalone task rates derived from `costs` on `spec`. Computed as the
// bottleneck over operators of parallelism x standalone rate, scaled back to source terms;
// capped at the aggregate target.
double EstimateSustainableRate(const LogicalGraph& graph,
                               const std::map<OperatorId, double>& source_rates,
                               const std::vector<MeasuredCost>& costs, const WorkerSpec& spec);

// Plans a recovery of `graph` onto the usable subset of `cluster`. `usable` is indexed by
// global WorkerId. `options.policy` selects the placement policy, as in normal deployment.
// `graph` is the nominal (DS2-sized) width; a degraded plan is `graph` shrunk by
// FitParallelism, the same rule the placement service applies. Never CHECK-fails on
// insufficient capacity — that is what the outcome reports.
RecoveryPlan PlanRecovery(const LogicalGraph& graph,
                          const std::map<OperatorId, double>& source_rates,
                          const std::vector<MeasuredCost>& costs, const Cluster& cluster,
                          const std::vector<bool>& usable, const DeployOptions& options);

}  // namespace capsys

#endif  // SRC_CONTROLLER_RECOVERY_H_
