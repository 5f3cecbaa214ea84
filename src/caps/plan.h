// The CAPS plan step of the placement controller (paper §5.1, Figure 6 ④), shared by the
// batch controller and the online placement service: run the CAPS search with a greedy
// incumbent, which returns the band pick among the candidates: the lowest max cost among
// the plans whose predicted bottleneck utilization (MaxUtilization) is within kUtilBand of
// the lowest. Only instances searched find-first auto-tune their pruning thresholds.
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
  ResourceVector alpha;  // thresholds the search ran with: all ones for a branch and bound given none
  SearchStats search;    // the final search's statistics (empty for cached plans)
};

// Inner-search nodes a final search may expand (SearchOptions::max_nodes). Unlike a wall
// clock, it stops the search at the same node on every machine.
inline constexpr uint64_t kFinalSearchNodeBudget = 2'000'000;

// Plans `model` with the CAPS search under `alpha`. Instances with more than
// `find_first_above_tasks` tasks stop at the first satisfying plan (the paper's online
// mode), under auto-tuned thresholds when `alpha` is empty (all-ones when tuning finds no
// feasible vector). Smaller ones are searched by branch and bound, at α = (1, 1, 1) when
// `alpha` is empty: its utilization box prunes what the thresholds would. The search
// starts from a GreedyBalancedPlacement incumbent, which guards against over-relaxed
// thresholds and against a walk cut at kFinalSearchNodeBudget, and returns the band pick:
// among the candidates within kUtilBand of the lowest MaxUtilization, the lowest max cost
// and then the lowest cost sum, each tied within 1e-9 (SearchOptions::incumbent).
PlannedPlacement PlanPlacement(const CostModel& model, std::optional<ResourceVector> alpha,
                               const AutoTuneOptions& autotune, int find_first_above_tasks);

}  // namespace capsys

#endif  // SRC_CAPS_PLAN_H_
