// Chaos experiment driver (robustness extension): replays a seeded FaultSchedule against a
// deployed query while the hardened controller loop runs — heartbeat failure detection with
// suspicion and flap blacklisting, bounded re-planning under churn, and graceful
// degraded-mode recovery (down-scaling parallelism when the survivors cannot host the query
// at full width, re-upscaling when workers return). The one fault harness of the repo: a
// single worker kill is the one-event schedule FaultSchedule().Crash(t, w). Reports the
// resiliency metrics StreamShield-style evaluations use: MTTR, reconfiguration count,
// throughput-loss integral, and detector false positives.
#ifndef SRC_CONTROLLER_CHAOS_EXPERIMENTS_H_
#define SRC_CONTROLLER_CHAOS_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/controller/recovery.h"
#include "src/controller/scaling_experiments.h"
#include "src/faults/fault_schedule.h"
#include "src/metrics/metrics.h"

namespace capsys {

// The control loop runs every 1 s (heartbeat collection, detector ticks, fault application)
// and samples the timeline every 5 s. A fresh plan costs 2 s of decision latency; churn
// that invalidates it is retried at most 3 times, and an unplaceable verdict backs off
// 10 s. These are fixed in the driver.
struct ChaosExperimentOptions {
  PlacementPolicy policy = PlacementPolicy::kCaps;
  double run_s = 420.0;
  // A sample counts as healthy when throughput >= target_fraction x the achievable target
  // (the nominal target, reduced while running a degraded plan).
  double target_fraction = 0.9;
  // Aligned-snapshot checkpointing: a CheckpointCoordinator runs alongside the control
  // loop, its in-flight uploads contend with the workers' disk bandwidth, and every
  // reconfiguration restores from the last *completed* checkpoint. When off, each
  // reconfiguration costs the recovery model's fixed 5 s blackout.
  bool use_checkpointing = true;
  CheckpointOptions checkpoint;
  StateGrowthModel state;
  // Delivery guarantee for the recovery accounting: exactly-once replays the backlog
  // inside the blackout (zero lost/duplicates); at-least-once resumes immediately and
  // counts the replayed records as duplicates.
  bool exactly_once = true;
  // Minimum gap before re-upscaling onto restored workers (prevents reconfiguration storms
  // when workers churn).
  double upscale_cooldown_s = 30.0;
  int search_threads = 1;  // DeployOptions::search_threads
  uint64_t seed = 1;
};

struct ChaosRun {
  // Sampled every 5 s; `target_rate` carries the achievable target at that
  // time (nominal, or the degraded plan's sustainable rate), `slots` the deployed width.
  std::vector<TimelinePoint> timeline;
  std::vector<double> reconfig_times_s;
  int reconfigurations = 0;
  int deaths_declared = 0;
  int false_positives = 0;      // declared dead while not actually crashed (ground truth)
  int replan_churn_retries = 0;  // plans recomputed because the usable set changed mid-search
  int unplaceable_verdicts = 0;  // recovery attempts that found no feasible plan

  // Outage accounting over the timeline: an outage is a maximal run of samples below
  // target_fraction x achievable target.
  int outages = 0;
  int unrecovered_outages = 0;  // still below the bar when the run ended
  double mttr_s = -1.0;         // mean duration of recovered outages; -1 when none
  double longest_outage_s = 0.0;
  // Integral of max(0, nominal target - throughput) over the run (records "missing" vs. a
  // fault-free ideal).
  double throughput_loss = 0.0;
  double mean_throughput = 0.0;

  RecoveryOutcome last_outcome = RecoveryOutcome::kRecoveredFull;
  int final_slots = 0;

  // Checkpoint & restore accounting (zeros when use_checkpointing is off).
  int checkpoints_triggered = 0;
  int checkpoints_completed = 0;
  int checkpoints_failed = 0;
  int checkpoints_expired = 0;
  double replayed_records = 0.0;   // source backlog re-read across all recoveries
  double duplicate_records = 0.0;  // at-least-once only: replayed records delivered twice
  double lost_records = 0.0;       // nonzero only on fallback (no completed checkpoint)
  double restore_downtime_s = 0.0;  // total reconfiguration blackout across the run

  // Driver-side telemetry on the global timeline: "chaos.0.*" gauges sampled with the
  // timeline, reconfiguration/verdict counters, and the replan-latency histogram. Exported
  // alongside events/spans in the telemetry bundle (src/obs/exporters.h).
  MetricsRegistry telemetry;

  std::string ToString() const;
};

// Deploys `query` DS2-sized with `options.policy`, then replays `schedule` against it.
ChaosRun RunChaosExperiment(const QuerySpec& query, const Cluster& cluster,
                            const FaultSchedule& schedule,
                            const ChaosExperimentOptions& options);

}  // namespace capsys

#endif  // SRC_CONTROLLER_CHAOS_EXPERIMENTS_H_
