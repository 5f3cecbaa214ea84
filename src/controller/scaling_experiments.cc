#include "src/controller/scaling_experiments.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/dataflow/rates.h"
#include "src/obs/events.h"

namespace capsys {
namespace {

// DS2 controller timing (paper §6.4).
constexpr double kActivationTimeS = 90.0;
constexpr double kPolicyIntervalS = 5.0;
// Metrics window DS2 evaluates over.
constexpr double kMetricsWindowS = 30.0;
// Restart blackout per reconfiguration.
constexpr double kReconfigureDowntimeS = 5.0;
// Fraction of the target a step must reach to count as "met".
constexpr double kTargetFraction = 0.95;

std::map<OperatorId, double> ScaledRates(const std::map<OperatorId, double>& base,
                                         double total_rate) {
  double base_total = 0.0;
  for (const auto& [op, r] : base) {
    base_total += r;
  }
  std::map<OperatorId, double> out;
  for (const auto& [op, r] : base) {
    out[op] = total_rate * (r / base_total);
  }
  return out;
}

}  // namespace

std::string StepEval::ToString() const {
  return Sprintf("target=%.0f thr=%.0f slots=%d (min %d) throughput:%s resources:%s decisions=%d",
                 target_rate, throughput, slots, min_slots, met_target ? "OK" : "MISS",
                 overprovisioned ? "OVER" : "OK", scaling_decisions);
}

ScalingRun RunScalingExperiment(const QuerySpec& query, const Cluster& cluster,
                                const std::vector<double>& rate_steps,
                                const ScalingExperimentOptions& options) {
  CAPSYS_CHECK(!rate_steps.empty());
  ScalingRun run;
  // All structured events below stamp against the driver's global clock.
  EventLog::Global().set_now(0.0);

  DeployOptions deploy_options;
  deploy_options.policy = options.policy;
  deploy_options.seed = options.seed;
  CapsysController controller(cluster, deploy_options);

  // One-time profiling at the base rates (§5.1: profiling is not repeated on reconfig).
  const WorkerSpec& spec = cluster.worker(0).spec;
  std::vector<MeasuredCost> costs = ProfileOperators(query.graph, query.source_rates, spec);

  // --- Initial configuration --------------------------------------------------------------
  LogicalGraph graph = query.graph;
  auto step0_rates = ScaledRates(query.source_rates, rate_steps[0]);
  if (options.start_optimal) {
    graph.SetParallelism(MinimalParallelism(graph, step0_rates, spec,
                                          FluidSimulator::kContention.cores_per_task));
  } else {
    for (OperatorId o = 0; o < graph.num_operators(); ++o) {
      graph.SetParallelism(o, 1);
    }
  }

  auto make_placement = [&](const LogicalGraph& g,
                            const std::map<OperatorId, double>& rates) -> Placement {
    PhysicalGraph physical = PhysicalGraph::Expand(g);
    auto op_rates = PropagateRates(g, rates);
    auto demands = DemandsFromMeasuredCosts(physical, costs, op_rates);
    if (options.start_optimal && run.timeline.empty() &&
        options.policy != PlacementPolicy::kCaps) {
      // Table 4 setup: every policy starts from the manually tuned optimal placement.
      DeployOptions caps_options = deploy_options;
      caps_options.policy = PlacementPolicy::kCaps;
      CapsysController caps(cluster, caps_options);
      return caps.Place(physical, rates, demands, nullptr);
    }
    return controller.Place(physical, rates, demands, nullptr);
  };

  Placement placement = make_placement(graph, step0_rates);
  auto sim = std::make_unique<FluidSimulator>(PhysicalGraph::Expand(graph), cluster, placement);
  double global_offset = 0.0;  // global time = offset + sim->time_s()

  std::map<OperatorId, double> current_rates = step0_rates;
  auto apply_rates = [&](FluidSimulator& s) {
    for (const auto& [op, r] : current_rates) {
      s.SetSourceRate(op, r);
    }
  };
  apply_rates(*sim);

  // --- Main loop ---------------------------------------------------------------------------
  for (size_t step = 0; step < rate_steps.size(); ++step) {
    current_rates = ScaledRates(query.source_rates, rate_steps[step]);
    apply_rates(*sim);
    int decisions_this_step = 0;

    double elapsed_in_step = 0.0;
    while (elapsed_in_step + 1e-9 < options.step_duration_s) {
      sim->RunFor(kPolicyIntervalS);
      elapsed_in_step += kPolicyIntervalS;
      double now_local = sim->time_s();
      double now_global = global_offset + now_local;
      EventLog::Global().set_now(now_global);
      QuerySummary last = sim->Summarize(now_local - kPolicyIntervalS, now_local);
      run.timeline.push_back(TimelinePoint{.time_s = now_global,
                                           .target_rate = rate_steps[step],
                                           .throughput = last.throughput,
                                           .slots = graph.total_parallelism()});

      // DS2 evaluation: only after the activation time has elapsed since the last
      // reconfiguration, so the controller sees stabilized metrics.
      if (now_local < kActivationTimeS) {
        continue;
      }
      double window_from = std::max(0.0, now_local - kMetricsWindowS);
      std::vector<Ds2Observation> obs(static_cast<size_t>(graph.num_operators()));
      for (OperatorId o = 0; o < graph.num_operators(); ++o) {
        auto& ob = obs[static_cast<size_t>(o)];
        ob.true_rate_per_task = sim->OperatorTrueRatePerTask(o, window_from, now_local);
        ob.observed_input_rate = sim->OperatorInputRate(o, window_from, now_local);
        ob.observed_output_rate = sim->OperatorOutputRate(o, window_from, now_local);
      }
      Ds2Decision decision = Ds2Scale(
          graph, current_rates, obs,
          std::min(kDs2MaxParallelism, cluster.total_slots() - graph.num_operators() + 1));
      if (!decision.changed) {
        continue;
      }
      // Cap total tasks at cluster capacity (DS2 cannot deploy more than the slots allow).
      int total = 0;
      for (int p : decision.parallelism) {
        total += p;
      }
      if (total > cluster.total_slots()) {
        continue;
      }
      // ⑤ Reconfigure: new parallelism, new placement, fresh runtime.
      ++decisions_this_step;
      ++run.total_decisions;
      run.decision_times_s.push_back(now_global);
      graph.SetParallelism(decision.parallelism);
      placement = make_placement(graph, current_rates);
      global_offset += sim->time_s();
      sim = std::make_unique<FluidSimulator>(PhysicalGraph::Expand(graph), cluster, placement);
      sim->SetTelemetryTimeOffset(global_offset);
      // Restart blackout: no records flow until the job is back up.
      sim->RunFor(kReconfigureDowntimeS);
      elapsed_in_step += kReconfigureDowntimeS;
      apply_rates(*sim);
    }

    // --- Step evaluation ---------------------------------------------------------------
    double eval_window = std::min(60.0, options.step_duration_s / 3.0);
    if (sim->time_s() < eval_window) {
      // A reconfiguration landed near the step boundary; give the fresh runtime a full
      // evaluation window before judging the step.
      sim->RunFor(eval_window - sim->time_s());
    }
    double now_local = sim->time_s();
    QuerySummary summary = sim->Summarize(now_local - eval_window, now_local);
    StepEval eval;
    eval.target_rate = rate_steps[step];
    eval.throughput = summary.throughput;
    eval.slots = graph.total_parallelism();
    auto min_p = MinimalParallelism(query.graph, current_rates, spec,
                                    FluidSimulator::kContention.cores_per_task);
    for (int p : min_p) {
      eval.min_slots += p;
    }
    eval.met_target = summary.throughput >= kTargetFraction * rate_steps[step];
    eval.overprovisioned = eval.slots > eval.min_slots;
    eval.scaling_decisions = decisions_this_step;
    run.steps.push_back(eval);
  }
  return run;
}

}  // namespace capsys
