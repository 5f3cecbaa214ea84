#include "src/caps/plan.h"

#include <algorithm>
#include <vector>

#include "src/caps/greedy.h"
#include "src/caps/search.h"

namespace capsys {

double MaxUtilization(const CostModel& model, const Placement& plan) {
  const Cluster& cluster = model.cluster();
  auto loads = model.WorkerLoads(plan);
  double worst = 0.0;
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    const auto& spec = cluster.worker(w).spec;
    const auto& l = loads[static_cast<size_t>(w)];
    worst = std::max({worst, l.cpu / std::max(1e-12, spec.cpu_capacity),
                      l.io / std::max(1e-12, spec.io_bandwidth_bps),
                      l.net / std::max(1e-12, spec.net_bandwidth_bps)});
  }
  return worst;
}

PlannedPlacement PlanPlacement(const CostModel& model, std::optional<ResourceVector> alpha,
                               const AutoTuneOptions& autotune, int search_threads,
                               double search_timeout_s, int find_first_above_tasks) {
  if (!alpha.has_value()) {
    AutoTuneOptions tune = autotune;
    tune.num_threads = search_threads;
    AutoTuneResult tuned = AutoTuneThresholds(model, tune);
    alpha = tuned.feasible ? tuned.alpha : ResourceVector{1.0, 1.0, 1.0};
  }
  SearchOptions search_options;
  search_options.alpha = *alpha;
  search_options.num_threads = search_threads;
  search_options.timeout_s = search_timeout_s;
  search_options.find_first = model.graph().num_tasks() > find_first_above_tasks;
  SearchResult result = CapsSearch(model, search_options).Run();

  std::vector<ScoredPlan> candidates = std::move(result.pareto);
  Placement greedy = GreedyBalancedPlacement(model);
  candidates.push_back(ScoredPlan{greedy, model.Cost(greedy)});
  size_t best = 0;
  double best_util = 1e300;
  for (size_t i = 0; i < candidates.size(); ++i) {
    double util = MaxUtilization(model, candidates[i].placement);
    if (util < best_util - 1e-9 ||
        (util < best_util + 1e-9 && BetterCost(candidates[i].cost, candidates[best].cost))) {
      best = i;
      best_util = util;
    }
  }
  return PlannedPlacement{std::move(candidates[best].placement), candidates[best].cost,
                          *alpha};
}

}  // namespace capsys
