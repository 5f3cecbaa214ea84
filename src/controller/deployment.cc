#include "src/controller/deployment.h"

#include <algorithm>
#include <chrono>

#include "src/baselines/flink_strategies.h"
#include "src/caps/plan.h"
#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/dataflow/logical_graph.h"
#include "src/dataflow/rates.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

// Larger instances take the first plan within the auto-tuned thresholds (PlanPlacement).
constexpr int kFindFirstAboveTasks = 48;

}  // namespace

const char* PolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kCaps:
      return "capsys";
    case PlacementPolicy::kFlinkDefault:
      return "default";
    case PlacementPolicy::kFlinkEvenly:
      return "evenly";
  }
  return "?";
}

Deployment CapsysController::Deploy(const QuerySpec& query) {
  return DeployGraph(query.graph, query.source_rates);
}

Deployment CapsysController::DeployGraph(const LogicalGraph& graph,
                                         const std::map<OperatorId, double>& source_rates) {
  Span deploy_span("controller.deploy");
  deploy_span.AddAttr("policy", PolicyName(options_.policy));
  Deployment d;
  d.graph = graph;
  d.source_rates = source_rates;

  // ② Profiling job: per-operator unit costs.
  {
    Span profile_span("controller.profile");
    d.costs = ProfileOperators(graph, source_rates, cluster_.worker(0).spec);
  }

  // ③ Scaling controller (DS2): parallelism per operator from profiled standalone rates.
  if (options_.use_ds2_sizing) {
    Span ds2_span("controller.ds2_sizing");
    std::vector<Ds2Observation> obs(static_cast<size_t>(graph.num_operators()));
    for (OperatorId o = 0; o < graph.num_operators(); ++o) {
      obs[static_cast<size_t>(o)].true_rate_per_task =
          StandaloneTaskRate(d.costs[static_cast<size_t>(o)], cluster_.worker(0).spec);
    }
    Ds2Decision decision =
        Ds2Scale(graph, source_rates, obs,
                 std::min(kDs2MaxParallelism,
                          cluster_.slots_per_worker() * cluster_.num_workers()));
    int slots_before = d.graph.total_parallelism();
    d.graph.SetParallelism(decision.parallelism);
    ds2_span.AddAttr("parallelism", decision.ToString());
    if (decision.changed) {
      EmitScaleDecision(EventLog::Global().now(), "ds2_sizing", slots_before,
                        d.graph.total_parallelism(), decision.ToString());
    }
  }

  // A graph wider than the cluster shrinks by the down-scale rule recovery and the service
  // use; only one that does not fit at parallelism 1 fails the check below.
  if (d.graph.total_parallelism() > cluster_.total_slots()) {
    int slots_before = d.graph.total_parallelism();
    if (FitParallelism(d.graph, cluster_.total_slots())) {
      EmitScaleDecision(EventLog::Global().now(), "fit_cluster", slots_before,
                        d.graph.total_parallelism(), d.graph.ToString());
    }
  }

  // ④ Placement controller.
  d.physical = PhysicalGraph::Expand(d.graph);
  CAPSYS_CHECK_MSG(cluster_.total_slots() >= d.physical.num_tasks(),
                   Sprintf("cluster has %d slots but the query needs %d tasks",
                           cluster_.total_slots(), d.physical.num_tasks()));
  auto rates = PropagateRates(d.graph, source_rates);
  auto demands = DemandsFromMeasuredCosts(d.physical, d.costs, rates);
  d.placement = Place(d.physical, source_rates, demands, &d);
  return d;
}

Placement CapsysController::Place(const PhysicalGraph& physical,
                                  const std::map<OperatorId, double>& source_rates,
                                  const std::vector<ResourceVector>& demands, Deployment* out) {
  Span place_span("controller.place");
  place_span.AddAttr("policy", PolicyName(options_.policy));
  place_span.AddAttr("tasks", physical.num_tasks());
  auto start = std::chrono::steady_clock::now();
  PlannedPlacement planned;
  planned.alpha = ResourceVector{1.0, 1.0, 1.0};
  switch (options_.policy) {
    case PlacementPolicy::kCaps: {
      CostModel model(physical, cluster_, demands);
      // Precomputed thresholds for this graph on this cluster skip the runtime auto-tuning.
      std::optional<ResourceVector> cached;
      if (options_.plan_cache != nullptr) {
        auto entry = options_.plan_cache->Lookup(
            PlanCache::Key(physical.logical(), source_rates, cluster_));
        if (entry.has_value()) {
          cached = entry->alpha;
        }
      }
      planned = PlanPlacement(model, cached, options_.autotune, kFindFirstAboveTasks);
      break;
    }
    case PlacementPolicy::kFlinkDefault:
      planned.placement = FlinkDefaultPlacement(physical, cluster_, rng_);
      break;
    case PlacementPolicy::kFlinkEvenly:
      planned.placement = FlinkEvenlyPlacement(physical, cluster_, rng_);
      break;
  }
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (out != nullptr) {
    out->alpha = planned.alpha;
    out->plan_cost = planned.cost;
    out->decision_time_s = elapsed;
  }
  place_span.AddAttr("decision_time_s", elapsed);
  EmitPlacementDecision(EventLog::Global().now(), PolicyName(options_.policy),
                        physical.num_tasks(), cluster_.num_workers(), planned.alpha,
                        planned.cost, elapsed);
  return planned.placement;
}

}  // namespace capsys
