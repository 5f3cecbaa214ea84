// Robustness extension bench: chaos engineering. Replays one seeded FaultSchedule — a
// straggler, a worker crash, a flapping worker, a metric-dropout episode, and a correlated
// triple crash that makes the query unplaceable at full parallelism — against every
// placement policy, with the hardened controller loop (heartbeat failure detection,
// flap blacklisting, bounded re-planning under churn, DS2 down-scale recovery) driving
// reconfigurations. Reports MTTR, reconfiguration count, throughput-loss integral, and
// detector false positives per policy. The schedule and all randomness are seeded, so the
// comparison across policies is exact.
// Each policy's run additionally exports a full telemetry bundle (metrics.json,
// trace.json, events.jsonl) under $CAPSYS_TELEMETRY_DIR/<policy>/ (default
// ./chaos_telemetry) — see EXPERIMENTS.md "Inspecting a run".
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/controller/chaos_experiments.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/obs/exporters.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

FaultSchedule BuildSchedule() {
  FaultSchedule s;
  // Transient straggler: w2 at 30% capacity for 30 s. Must be suspected at most — a
  // detector that declares it dead pays a reconfiguration for a false positive.
  s.Slowdown(50.0, 2, 0.3, 30.0);
  // Plain crash, restored two minutes later.
  s.Crash(90.0, 1).Restore(210.0, 1);
  // Flapping worker: 3 crash/restore cycles of 24 s (12 s down each time, long enough for
  // the detector to declare it dead) — should end up blacklisted with exponential backoff
  // instead of bouncing tasks back onto it.
  s.Flap(120.0, 3, 24.0, 3);
  // Lossy telemetry while w1 is still down.
  s.MetricDropout(160.0, 0.3, 30.0);
  // Correlated triple crash: with w1 down and w3 blacklisted this leaves a single usable
  // worker — too few slots for full parallelism, so the controller must down-scale
  // (degraded mode), then re-upscale when capacity returns.
  s.Crash(200.0, 0).Crash(200.0, 4).Crash(200.0, 5);
  s.Restore(300.0, 0).Restore(300.0, 4).Restore(300.0, 5);
  return s;
}

int Main() {
  InitLoggingFromEnv();
  Cluster cluster(6, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  // Saturate the 6-worker cluster so DS2 sizes the query wide: losing three workers then
  // genuinely leaves too few slots for full parallelism.
  q.ScaleRates(2.0);
  FaultSchedule schedule = BuildSchedule();

  const char* env_dir = std::getenv("CAPSYS_TELEMETRY_DIR");
  std::string telemetry_dir = env_dir != nullptr ? env_dir : "chaos_telemetry";
  Tracer::Global().Enable();
  EventLog::Global().Enable();

  std::printf("=== Chaos run: Q1-sliding on %s, 420 s ===\n\nschedule: %s\n\n",
              cluster.ToString().c_str(), schedule.ToString().c_str());
  std::printf("%-10s %-9s %-7s %-9s %-11s %-8s %-9s %-10s %-10s %s\n", "policy", "reconfigs",
              "deaths", "false+", "unplace", "mttr", "longest", "loss(Mrec)", "mean thr",
              "final");
  for (PlacementPolicy policy : {PlacementPolicy::kCaps, PlacementPolicy::kFlinkDefault,
                                 PlacementPolicy::kFlinkEvenly}) {
    ChaosExperimentOptions options;
    options.policy = policy;
    options.run_s = 420.0;
    options.seed = 7;
    Tracer::Global().Reset();
    EventLog::Global().Reset();
    ChaosRun run = RunChaosExperiment(q, cluster, schedule, options);
    std::string bundle_dir = telemetry_dir + "/" + PolicyName(policy);
    std::string error;
    if (WriteTelemetryBundle(bundle_dir, &run.telemetry, &error)) {
      std::printf("telemetry bundle: %s/ (%zu spans, %zu events)\n", bundle_dir.c_str(),
                  Tracer::Global().SpanCount(), EventLog::Global().Count());
    } else {
      std::printf("telemetry bundle FAILED: %s\n", error.c_str());
    }
    std::printf("--- %s timeline (t: thr/achievable, slots) ---\n", PolicyName(policy));
    for (size_t i = 5; i < run.timeline.size(); i += 6) {
      const TimelinePoint& p = run.timeline[i];
      std::printf("  t=%3.0f %7.0f /%7.0f %2d slots\n", p.time_s, p.throughput, p.target_rate,
                  p.slots);
    }
    std::printf("%-10s %-9d %-7d %-9d %-11d %-8s %-9s %-10.2f %-10.0f %s(%d slots)\n",
                PolicyName(policy), run.reconfigurations, run.deaths_declared,
                run.false_positives, run.unplaceable_verdicts,
                run.mttr_s >= 0 ? Sprintf("%.0fs", run.mttr_s).c_str() : "-",
                Sprintf("%.0fs", run.longest_outage_s).c_str(), run.throughput_loss / 1e6,
                run.mean_throughput, RecoveryOutcomeName(run.last_outcome), run.final_slots);
    // Checkpoint & restore accounting; the per-reconfiguration replayed-record counts are
    // in the bundle as the chaos.0.replayed_records series.
    std::printf("           checkpoints %d ok / %d failed / %d expired; replayed=%.0f "
                "dupes=%.0f lost=%.0f blackout=%.1fs\n",
                run.checkpoints_completed, run.checkpoints_failed, run.checkpoints_expired,
                run.replayed_records, run.duplicate_records, run.lost_records,
                run.restore_downtime_s);
  }
  std::printf(
      "\nexpected: the straggler and the dropout episode cause no deaths (false+ = 0 with\n"
      "the default suspicion settings); the flapping worker is blacklisted after two\n"
      "deaths; the triple crash forces a degraded down-scale and the controller\n"
      "re-upscales once the workers return. Blackouts are replay-aware: each\n"
      "reconfiguration restores the last completed checkpoint and replays from its\n"
      "barrier (zero lost / zero duplicate records under exactly-once), so recovery cost\n"
      "tracks barrier phase and placement concentration; the packing-blind default\n"
      "policy loses the most throughput by a wide margin.\n");
  return 0;
}

}  // namespace
}  // namespace capsys

int main() { return capsys::Main(); }
