#include "src/controller/recovery.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/dataflow/rates.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace capsys {

const char* RecoveryOutcomeName(RecoveryOutcome outcome) {
  switch (outcome) {
    case RecoveryOutcome::kRecoveredFull:
      return "full";
    case RecoveryOutcome::kRecoveredDegraded:
      return "degraded";
    case RecoveryOutcome::kUnplaceable:
      return "unplaceable";
  }
  return "?";
}

std::string RecoveryPlan::ToString() const {
  return Sprintf("outcome=%s slots=%d->%d sustainable=%.0f rec/s",
                 RecoveryOutcomeName(outcome), slots_before, graph.total_parallelism(),
                 sustainable_rate);
}

double EstimateSustainableRate(const LogicalGraph& graph,
                               const std::map<OperatorId, double>& source_rates,
                               const std::vector<MeasuredCost>& costs,
                               const WorkerSpec& spec) {
  double target = 0.0;
  for (const auto& [op, r] : source_rates) {
    target += r;
  }
  if (target <= 1e-9) {
    return 0.0;
  }
  auto rates = PropagateRates(graph, source_rates);
  // Sustained fraction of the target = min over operators of what its tasks can absorb
  // relative to the load the target pushes through it (rates scale linearly with the
  // aggregate source rate in the fluid model).
  double fraction = 1.0;
  for (OperatorId o = 0; o < graph.num_operators(); ++o) {
    double in = rates[static_cast<size_t>(o)].input_rate;
    if (in <= 1e-9) {
      continue;
    }
    double solo = StandaloneTaskRate(costs[static_cast<size_t>(o)], spec);
    double capacity = solo * graph.op(o).parallelism;
    fraction = std::min(fraction, capacity / in);
  }
  return target * std::clamp(fraction, 0.0, 1.0);
}

RecoveryPlan PlanRecovery(const LogicalGraph& graph,
                          const std::map<OperatorId, double>& source_rates,
                          const std::vector<MeasuredCost>& costs, const Cluster& cluster,
                          const std::vector<bool>& usable, const DeployOptions& options) {
  CAPSYS_CHECK(static_cast<int>(usable.size()) == cluster.num_workers());
  CAPSYS_CHECK(static_cast<int>(costs.size()) == graph.num_operators());
  Span span("controller.plan_recovery");
  RecoveryPlan plan;
  plan.slots_before = graph.total_parallelism();

  // --- Usable sub-cluster -------------------------------------------------------------------
  std::vector<WorkerSpec> surviving;
  std::vector<WorkerId> to_global;
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    if (usable[static_cast<size_t>(w)]) {
      surviving.push_back(cluster.worker(w).spec);
      to_global.push_back(w);
    }
  }
  if (surviving.empty()) {
    return plan;  // kUnplaceable: no worker left to host anything
  }
  Cluster reduced(std::move(surviving));
  int available_slots = reduced.total_slots();

  // --- Fit parallelism to the survivors -----------------------------------------------------
  LogicalGraph fitted = graph;
  if (!FitParallelism(fitted, available_slots)) {
    return plan;  // even parallelism 1 per operator cannot fit
  }
  plan.graph = std::move(fitted);
  if (plan.graph.total_parallelism() < plan.slots_before) {
    plan.outcome = RecoveryOutcome::kRecoveredDegraded;
    EmitScaleDecision(EventLog::Global().now(), "degraded_recovery", plan.slots_before,
                      plan.graph.total_parallelism(), plan.graph.ToString());
    CAPSYS_LOG_WARN("recovery", Sprintf("down-scaled %d -> %d tasks to fit %d usable slots",
                                        plan.slots_before, plan.graph.total_parallelism(),
                                        available_slots));
  } else {
    plan.outcome = RecoveryOutcome::kRecoveredFull;
  }

  // --- Place on the reduced cluster and lift back to global ids -----------------------------
  plan.physical = PhysicalGraph::Expand(plan.graph);
  auto rates = PropagateRates(plan.graph, source_rates);
  auto demands = DemandsFromMeasuredCosts(plan.physical, costs, rates);
  CapsysController recovery_controller(reduced, options);
  Placement reduced_plan =
      recovery_controller.Place(plan.physical, source_rates, demands, nullptr);
  plan.placement = Placement(plan.physical.num_tasks());
  for (TaskId t = 0; t < plan.physical.num_tasks(); ++t) {
    plan.placement.Assign(t, to_global[static_cast<size_t>(reduced_plan.WorkerOf(t))]);
  }
  plan.sustainable_rate =
      EstimateSustainableRate(plan.graph, source_rates, costs, reduced.worker(0).spec);
  return plan;
}

}  // namespace capsys
