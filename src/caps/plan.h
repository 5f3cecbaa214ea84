// The CAPS plan step of the placement controller (paper §5.1, Figure 6 ④), shared by the
// batch controller and the online placement service: auto-tune the pruning thresholds
// unless they are given, then run the CAPS search with a greedy incumbent, which returns
// the plan with the lowest predicted bottleneck utilization (MaxUtilization).
#ifndef SRC_CAPS_PLAN_H_
#define SRC_CAPS_PLAN_H_

#include <cstdint>
#include <optional>

#include "src/caps/auto_tuner.h"
#include "src/caps/cost_model.h"
#include "src/caps/search.h"

namespace capsys {

struct PlannedPlacement {
  Placement placement;
  ResourceVector cost;   // CAPS cost vector of `placement`
  ResourceVector alpha;  // thresholds the search ran with
  SearchStats search;    // the final search's statistics (empty for cached plans)
};

// Inner-search nodes a final search may expand (SearchOptions::max_nodes). Unlike a wall
// clock, it stops a single-threaded search at the same node on every machine.
inline constexpr uint64_t kFinalSearchNodeBudget = 2'000'000;

// Plans `model` with the CAPS search under `alpha`, or under auto-tuned thresholds when
// `alpha` is empty (all-ones when tuning finds no feasible vector). Instances with more
// than `find_first_above_tasks` tasks stop at the first satisfying plan (the paper's online
// mode); smaller ones are searched by branch and bound. The search starts from a
// GreedyBalancedPlacement incumbent, which guards against over-relaxed thresholds and
// against a walk cut at kFinalSearchNodeBudget, and returns the candidate with the lowest
// MaxUtilization, ties within 1e-9 going to the lower max cost and then the lower cost sum
// (SearchOptions::incumbent).
PlannedPlacement PlanPlacement(const CostModel& model, std::optional<ResourceVector> alpha,
                               const AutoTuneOptions& autotune, int search_threads,
                               int find_first_above_tasks);

}  // namespace capsys

#endif  // SRC_CAPS_PLAN_H_
