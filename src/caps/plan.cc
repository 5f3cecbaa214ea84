#include "src/caps/plan.h"

#include "src/caps/greedy.h"

namespace capsys {

PlannedPlacement PlanPlacement(const CostModel& model, std::optional<ResourceVector> alpha,
                               const AutoTuneOptions& autotune, int search_threads,
                               int find_first_above_tasks) {
  bool find_first = model.graph().num_tasks() > find_first_above_tasks;
  if (!alpha.has_value()) {
    // The branch and bound's utilization box does the pruning the thresholds would do, so
    // only a find-first search, which takes the first plan within them, is tuned.
    alpha = ResourceVector{1.0, 1.0, 1.0};
    if (find_first) {
      AutoTuneResult tuned = AutoTuneThresholds(model, autotune);
      if (tuned.feasible) {
        alpha = tuned.alpha;
      }
    }
  }
  SearchOptions search_options;
  search_options.alpha = *alpha;
  search_options.num_threads = search_threads;
  search_options.max_nodes = kFinalSearchNodeBudget;
  search_options.find_first = find_first;
  search_options.incumbent = GreedyBalancedPlacement(model);
  SearchResult result = CapsSearch(model, search_options).Run();
  // A leaf's cost comes from loads kept by += and -=, a few ulps off the plan's own.
  ResourceVector cost = model.Cost(result.best.placement);
  return PlannedPlacement{std::move(result.best.placement), cost, *alpha, result.stats};
}

}  // namespace capsys
