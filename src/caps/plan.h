// The CAPS plan step of the placement controller (paper §5.1, Figure 6 ④), shared by the
// batch controller and the online placement service: auto-tune the pruning thresholds
// unless they are given, run the CAPS search, add a greedy incumbent, and pick the
// candidate with the lowest predicted bottleneck utilization.
#ifndef SRC_CAPS_PLAN_H_
#define SRC_CAPS_PLAN_H_

#include <optional>

#include "src/caps/auto_tuner.h"
#include "src/caps/cost_model.h"

namespace capsys {

// Predicted bottleneck utilization of a plan: per-worker loads normalized by the worker's
// actual capacities, maximized over workers and dimensions. The cost vector only measures
// *relative* imbalance per dimension; when choosing among pareto-optimal plans this
// capacity-aware score identifies which imbalance actually limits throughput.
double MaxUtilization(const CostModel& model, const Placement& plan);

struct PlannedPlacement {
  Placement placement;
  ResourceVector cost;   // CAPS cost vector of `placement`
  ResourceVector alpha;  // thresholds the search ran with
};

// Plans `model` with the CAPS search under `alpha`, or under auto-tuned thresholds when
// `alpha` is empty (all-ones when tuning finds no feasible vector). Instances with more
// than `find_first_above_tasks` tasks stop at the first satisfying plan (the paper's online
// mode). The pareto front plus a GreedyBalancedPlacement incumbent, which guards against
// over-relaxed thresholds and search timeouts, are ranked by MaxUtilization, tie-broken by
// the scalarized cost.
PlannedPlacement PlanPlacement(const CostModel& model, std::optional<ResourceVector> alpha,
                               const AutoTuneOptions& autotune, int search_threads,
                               double search_timeout_s, int find_first_above_tasks);

}  // namespace capsys

#endif  // SRC_CAPS_PLAN_H_
