#include "src/controller/chaos_experiments.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>

#include "src/checkpoint/recovery_model.h"
#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/controller/failure_detector.h"
#include "src/dataflow/rates.h"
#include "src/faults/fault_injector.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

// Controller loop cadence: heartbeat collection, detector ticks, fault application.
constexpr double kControlIntervalS = 1.0;
// Timeline sampling cadence (and the resolution of the loss integral).
constexpr double kSampleIntervalS = 5.0;
// Placement decision latency: the world keeps moving while the search runs, so a plan can
// be stale by the time it is ready (churn).
constexpr double kReplanLatencyS = 2.0;
// Bounded retry when churn invalidates a freshly computed plan.
constexpr int kMaxReplanRetries = 3;
// Back-off before re-attempting recovery after a kUnplaceable verdict.
constexpr double kUnplaceableRetryS = 10.0;

}  // namespace

std::string ChaosRun::ToString() const {
  return Sprintf(
      "reconfigs=%d deaths=%d false_pos=%d churn_retries=%d outages=%d (unrecovered %d) "
      "mttr=%.1fs loss=%.0f mean_thr=%.0f last=%s slots=%d ckpt=%d/%d/%d/%d "
      "(ok/fail/expired/total) replayed=%.0f dupes=%.0f lost=%.0f blackout=%.1fs",
      reconfigurations, deaths_declared, false_positives, replan_churn_retries, outages,
      unrecovered_outages, mttr_s, throughput_loss, mean_throughput,
      RecoveryOutcomeName(last_outcome), final_slots, checkpoints_completed,
      checkpoints_failed, checkpoints_expired, checkpoints_triggered, replayed_records,
      duplicate_records, lost_records, restore_downtime_s);
}

ChaosRun RunChaosExperiment(const QuerySpec& query, const Cluster& cluster,
                            const FaultSchedule& schedule,
                            const ChaosExperimentOptions& options) {
  ChaosRun run;
  const double target = query.TotalTargetRate();
  Span chaos_span("chaos.run");
  chaos_span.AddAttr("policy", PolicyName(options.policy));
  chaos_span.AddAttr("run_s", options.run_s);
  // All structured events below stamp against the driver's global clock.
  EventLog::Global().set_now(0.0);

  // --- Initial deployment -------------------------------------------------------------------
  DeployOptions deploy_options;
  deploy_options.policy = options.policy;
  deploy_options.use_ds2_sizing = true;
  deploy_options.seed = options.seed;
  CapsysController controller(cluster, deploy_options);
  Deployment d = controller.Deploy(query);

  // The DS2-sized graph is the nominal width recovery aims back at.
  const LogicalGraph nominal_graph = d.graph;
  LogicalGraph graph = d.graph;
  Placement placement = d.placement;
  PhysicalGraph physical = d.physical;

  // Flush metrics every control tick so timeline samples always see fresh windows, however
  // reconfigurations shift the runtime's local clock against the global one.
  auto sim = std::make_unique<FluidSimulator>(physical, cluster, placement, kControlIntervalS);
  for (const auto& [op, r] : d.source_rates) {
    sim->SetSourceRate(op, r);
  }

  FaultInjector injector(schedule, cluster.num_workers(), options.seed);
  FailureDetector detector(cluster.num_workers());

  // Checkpoint coordinator: runs on the driver's global clock, sized by the state growth
  // model. Null when checkpointing is disabled (fixed-blackout fallback).
  std::unique_ptr<CheckpointCoordinator> coordinator;
  if (options.use_checkpointing) {
    coordinator = std::make_unique<CheckpointCoordinator>(options.checkpoint, options.state,
                                                          &run.telemetry);
  }
  // Cumulative records emitted by the sources — the position checkpoint barriers capture
  // and recovery rewinds to.
  double cum_records = 0.0;

  double now = 0.0;            // global time
  double global_offset = 0.0;  // global time = offset + sim local time
  double next_sample = kSampleIntervalS;
  double achievable = std::min(
      target, EstimateSustainableRate(graph, d.source_rates, d.costs, cluster.worker(0).spec));
  double last_reconfig_s = -1e300;
  double last_unplaceable_s = -1e300;
  // Usable-worker count when the running plan was computed: the rebalance trigger fires
  // when capacity has returned since then.
  int plan_usable_workers = cluster.num_workers();

  // Charges the in-flight snapshot upload against the disk bandwidth of every worker
  // hosting the job, so checkpoint traffic contends with normal processing I/O (§3.3).
  auto apply_checkpoint_io = [&](double total_bps) {
    sim->ClearCheckpointIo();
    if (total_bps <= 0.0) {
      return;
    }
    std::set<WorkerId> hosts;
    for (TaskId t = 0; t < physical.num_tasks(); ++t) {
      hosts.insert(placement.WorkerOf(t));
    }
    double per_worker = total_bps / static_cast<double>(hosts.size());
    for (WorkerId w : hosts) {
      sim->SetWorkerCheckpointIoBps(w, per_worker);
    }
  };

  // Advances the world by one control interval: faults in, simulator on, heartbeats out,
  // detector tick, checkpoint lifecycle, timeline sample.
  auto step = [&]() {
    injector.AdvanceTo(now, sim.get());
    if (coordinator != nullptr) {
      apply_checkpoint_io(coordinator->InFlightIoBps());
    }
    sim->RunFor(kControlIntervalS);
    now += kControlIntervalS;
    EventLog::Global().set_now(now);
    {
      double local = now - global_offset;
      cum_records += sim->Throughput(std::max(0.0, local - kControlIntervalS), local) *
                     kControlIntervalS;
    }
    if (coordinator != nullptr) {
      coordinator->SetForceFail(injector.CheckpointsFailing());
      if (coordinator->InFlight()) {
        // Crash-mid-checkpoint: a participant died before acking its snapshot, so the
        // attempt can never complete — recovery must fall back to the last *completed*
        // checkpoint.
        for (TaskId t = 0; t < physical.num_tasks(); ++t) {
          if (injector.IsCrashed(placement.WorkerOf(t))) {
            coordinator->FailInFlight(now, "participant_crash");
            break;
          }
        }
      }
      coordinator->AdvanceTo(now, cum_records);
    }
    for (WorkerId w : injector.CollectHeartbeats(now)) {
      detector.RecordHeartbeat(w, now);
    }
    for (WorkerId w : detector.Tick(now)) {
      EmitWorkerDeclaredDead(now, w, injector.IsCrashed(w));
      if (!injector.IsCrashed(w)) {
        ++run.false_positives;
        run.telemetry.GetCounter("chaos.0.false_positives").Add();
        CAPSYS_LOG_WARN("chaos", Sprintf("false positive: w%d declared dead but alive", w));
      }
    }
    if (now + 1e-9 >= next_sample) {
      double local = now - global_offset;
      double throughput =
          sim->Throughput(std::max(0.0, local - kSampleIntervalS), local);
      run.timeline.push_back(TimelinePoint{.time_s = now,
                                           .target_rate = achievable,
                                           .throughput = throughput,
                                           .slots = graph.total_parallelism()});
      run.telemetry.Record("chaos.0.throughput", now, throughput);
      run.telemetry.Record("chaos.0.target_rate", now, achievable);
      run.telemetry.Record("chaos.0.slots", now, graph.total_parallelism());
      run.telemetry.Record("chaos.0.usable_workers", now, detector.NumUsable(now));
      next_sample += kSampleIntervalS;
    }
  };
  auto advance = [&](double seconds) {
    int ticks = std::max(1, static_cast<int>(std::llround(seconds / kControlIntervalS)));
    for (int i = 0; i < ticks; ++i) {
      step();
    }
  };

  // --- Control loop -------------------------------------------------------------------------
  while (now + kControlIntervalS <= options.run_s + 1e-9) {
    step();

    // Does the current deployment still stand on usable workers?
    bool hosts_unusable = false;
    for (TaskId t = 0; t < physical.num_tasks() && !hosts_unusable; ++t) {
      hosts_unusable = !detector.IsUsable(placement.WorkerOf(t), now);
    }
    // Can the deployment reclaim restored capacity? This fires both to re-upscale a
    // degraded (narrow) plan and to re-spread a full-width plan that was crammed onto the
    // few survivors while the rest of the cluster was down.
    bool can_rebalance = detector.NumUsable(now) > plan_usable_workers &&
                         now - last_reconfig_s >= options.upscale_cooldown_s;
    if (!hosts_unusable && !can_rebalance) {
      continue;
    }
    if (!hosts_unusable && now - last_unplaceable_s < kUnplaceableRetryS) {
      continue;  // back off after a hopeless attempt unless forced to act
    }

    // --- Recovery attempt, with bounded retry under churn -----------------------------------
    Span recovery_span("chaos.recovery_attempt");
    recovery_span.AddAttr("t", now);
    recovery_span.AddAttr("trigger", hosts_unusable ? "unusable_host" : "rebalance");
    RecoveryPlan plan;
    bool plan_usable = false;
    for (int attempt = 0; attempt <= kMaxReplanRetries; ++attempt) {
      if (attempt > 0) {
        ++run.replan_churn_retries;
        run.telemetry.GetCounter("chaos.0.churn_retries").Add();
      }
      auto replan_start = std::chrono::steady_clock::now();
      plan = PlanRecovery(nominal_graph, d.source_rates, d.costs, cluster,
                          detector.UsableMask(now), deploy_options);
      run.telemetry.GetHistogram("chaos.0.replan_seconds")
          .Observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 replan_start)
                       .count());
      // The search takes time; faults keep landing while it runs.
      advance(kReplanLatencyS);
      if (!plan.Placeable()) {
        break;
      }
      plan_usable = true;
      for (TaskId t = 0; t < plan.physical.num_tasks() && plan_usable; ++t) {
        plan_usable = detector.IsUsable(plan.placement.WorkerOf(t), now);
      }
      if (plan_usable) {
        break;  // plan survived the churn window
      }
      CAPSYS_LOG_WARN("chaos", Sprintf("plan stale after churn (attempt %d), retrying",
                                       attempt + 1));
    }

    if (!plan.Placeable()) {
      // Structured degraded verdict: keep whatever is still running, retry later. The
      // achievable bar intentionally stays at the last feasible plan's value so the stall
      // is accounted as an (un)recovered outage, not defined away.
      ++run.unplaceable_verdicts;
      run.telemetry.GetCounter("chaos.0.unplaceable_verdicts").Add();
      EmitRecoveryVerdict(now, "unplaceable", detector.NumUsable(now));
      run.last_outcome = RecoveryOutcome::kUnplaceable;
      last_unplaceable_s = now;
      CAPSYS_LOG_WARN("chaos",
                      Sprintf("t=%.0f recovery unplaceable (%d usable workers), retrying in "
                              "%.0fs",
                              now, detector.NumUsable(now), kUnplaceableRetryS));
      continue;
    }
    if (!plan_usable) {
      continue;  // churn outlasted the retry budget; try again next tick
    }

    // --- Apply: reconfigure onto the plan ---------------------------------------------------
    graph = plan.graph;
    physical = plan.physical;
    placement = plan.placement;
    run.last_outcome = plan.outcome;
    plan_usable_workers = detector.NumUsable(now);
    achievable = std::min(target, plan.sustainable_rate);
    ++run.reconfigurations;
    run.telemetry.GetCounter("chaos.0.reconfigurations").Add();
    EmitReconfiguration(now, RecoveryOutcomeName(plan.outcome), plan.graph.total_parallelism(),
                        plan.sustainable_rate);
    run.reconfig_times_s.push_back(now);
    last_reconfig_s = now;
    global_offset = now;
    sim = std::make_unique<FluidSimulator>(physical, cluster, placement, kControlIntervalS);
    sim->SetTelemetryTimeOffset(global_offset);
    injector.ApplyCurrentState(sim.get());

    // --- Blackout: restore from the last completed checkpoint + source replay ----------
    // (or the recovery model's fixed fallback when checkpointing is off / nothing has
    // completed). Sources stay silent until the advance() below finishes, so the
    // estimate's downtime shows up in the loss integral sample-by-sample.
    if (coordinator != nullptr) {
      coordinator->FailInFlight(now, "reconfiguration");
    }
    RecoveryEstimate est = EstimateRecovery(coordinator.get(), cum_records,
                                            std::max(plan.sustainable_rate, 1.0),
                                            cluster.worker(0).spec.io_bandwidth_bps,
                                            options.exactly_once);
    run.replayed_records += est.replayed_records;
    run.duplicate_records += est.duplicate_records;
    run.lost_records += est.lost_records;
    run.restore_downtime_s += est.downtime_s;
    run.telemetry.Record("chaos.0.replayed_records", now, est.replayed_records);
    run.telemetry.GetHistogram("chaos.0.restore_downtime_s").Observe(est.downtime_s);
    if (coordinator != nullptr) {
      EmitRestoreStarted(now, est.checkpoint_id, est.restored_bytes);
    }
    if (est.downtime_s > 0.0) {
      advance(est.downtime_s);
    }
    if (coordinator != nullptr) {
      EmitRestoreCompleted(now, est.checkpoint_id, est.downtime_s, est.replayed_records);
    }
    for (const auto& [op, r] : d.source_rates) {
      sim->SetSourceRate(op, r);
    }
    CAPSYS_LOG_INFO("chaos", Sprintf("t=%.0f reconfigured: %s (%s)", now,
                                     plan.ToString().c_str(), est.ToString().c_str()));
  }

  // --- Outage accounting over the timeline --------------------------------------------------
  double loss = 0.0;
  double thr_sum = 0.0;
  double outage_start = -1.0;
  std::vector<double> outage_durations;
  for (const TimelinePoint& p : run.timeline) {
    thr_sum += p.throughput;
    loss += std::max(0.0, target - p.throughput) * kSampleIntervalS;
    bool below = p.throughput < options.target_fraction * p.target_rate;
    if (below && outage_start < 0.0) {
      outage_start = p.time_s;
    } else if (!below && outage_start >= 0.0) {
      outage_durations.push_back(p.time_s - outage_start);
      outage_start = -1.0;
    }
  }
  run.outages = static_cast<int>(outage_durations.size());
  if (outage_start >= 0.0) {
    ++run.outages;
    ++run.unrecovered_outages;
    run.longest_outage_s =
        std::max(run.longest_outage_s, options.run_s - outage_start);
  }
  if (!outage_durations.empty()) {
    double sum = 0.0;
    for (double o : outage_durations) {
      sum += o;
      run.longest_outage_s = std::max(run.longest_outage_s, o);
    }
    run.mttr_s = sum / static_cast<double>(outage_durations.size());
  }
  run.throughput_loss = loss;
  run.mean_throughput =
      run.timeline.empty() ? 0.0 : thr_sum / static_cast<double>(run.timeline.size());
  run.deaths_declared = detector.deaths_declared();
  run.final_slots = graph.total_parallelism();
  if (coordinator != nullptr) {
    run.checkpoints_triggered = coordinator->triggered();
    run.checkpoints_completed = coordinator->completed();
    run.checkpoints_failed = coordinator->failed();
    run.checkpoints_expired = coordinator->expired();
  }
  if (chaos_span.active()) {
    chaos_span.AddAttr("reconfigurations", run.reconfigurations);
    chaos_span.AddAttr("outages", run.outages);
    chaos_span.AddAttr("mttr_s", run.mttr_s);
    chaos_span.AddAttr("mean_throughput", run.mean_throughput);
  }
  return run;
}

}  // namespace capsys
