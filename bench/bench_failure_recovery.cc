// Robustness extension bench: worker-failure recovery. The busiest worker dies mid-run, a
// one-event fault schedule for the chaos control loop: heartbeat detection, re-placement on
// the survivors (the reconfiguration path auto-scaling uses), and a checkpoint restore.
// Compares placement policies on post-recovery throughput: a contention-aware re-placement
// absorbs the lost worker's tasks without creating hotspots, while the baselines frequently
// stack them. Exits non-zero when the capsys row does not recover.
#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/controller/chaos_experiments.h"
#include "src/nexmark/queries.h"

namespace capsys {
namespace {

constexpr double kFailAtS = 120.0;
constexpr double kRunS = 360.0;

// Mean sampled throughput over the samples in (from_s, to_s].
double MeanThroughput(const ChaosRun& run, double from_s, double to_s) {
  double sum = 0.0;
  int n = 0;
  for (const TimelinePoint& p : run.timeline) {
    if (p.time_s > from_s && p.time_s <= to_s) {
      sum += p.throughput;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

int Main() {
  InitLoggingFromEnv();
  // 6 workers so the survivors can absorb the victim's tasks.
  Cluster cluster(6, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();

  std::printf("=== Failure recovery: Q1-sliding on %s, worker killed at t=120s ===\n\n",
              cluster.ToString().c_str());
  std::printf("%-10s %-8s %-12s %-12s %-12s %-14s\n", "policy", "victim", "before",
              "during-fail", "after", "recovery (s)");
  bool caps_recovered = false;
  for (PlacementPolicy policy : {PlacementPolicy::kCaps, PlacementPolicy::kFlinkDefault,
                                 PlacementPolicy::kFlinkEvenly}) {
    ChaosExperimentOptions options;
    options.policy = policy;
    options.run_s = kRunS;
    options.target_fraction = 0.95;
    options.seed = 5;
    // Victim: the worker hosting the most tasks in the deployment the run starts from.
    DeployOptions deploy;
    deploy.policy = policy;
    deploy.use_ds2_sizing = true;
    deploy.search_threads = options.search_threads;
    deploy.seed = options.seed;
    std::vector<int> load =
        CapsysController(cluster, deploy).Deploy(q).placement.LoadByWorker(cluster);
    auto victim = static_cast<WorkerId>(std::max_element(load.begin(), load.end()) -
                                        load.begin());
    ChaosRun run =
        RunChaosExperiment(q, cluster, FaultSchedule().Crash(kFailAtS, victim), options);

    double replaced_s = kRunS;
    for (double t : run.reconfig_times_s) {
      replaced_s = std::min(replaced_s, t);
    }
    // Recovered: a sample after the re-placement clears the bar against the achievable
    // target (the degraded plan's sustainable rate after a down-scale).
    double recovery_s = -1.0;
    for (const TimelinePoint& p : run.timeline) {
      if (recovery_s < 0.0 && p.time_s > replaced_s &&
          p.throughput >= options.target_fraction * p.target_rate) {
        recovery_s = p.time_s - kFailAtS;
      }
    }
    caps_recovered |= policy == PlacementPolicy::kCaps && recovery_s >= 0.0;
    std::printf("%-10s w%-7d %-12.0f %-12.0f %-12.0f %s\n", PolicyName(policy), victim,
                MeanThroughput(run, kFailAtS - 30.0, kFailAtS),
                MeanThroughput(run, kFailAtS, replaced_s),
                MeanThroughput(run, kRunS - 30.0, kRunS),
                recovery_s >= 0.0 ? Sprintf("%.1f", recovery_s).c_str() : "not recovered");
  }
  std::printf("\nexpected: all policies lose throughput while the worker is down; the\n"
              "contention-aware re-placement restores the target, while baselines may\n"
              "stack the victim's stateful tasks and stay degraded.\n");
  return caps_recovered ? 0 : 1;
}

}  // namespace
}  // namespace capsys

int main() { return capsys::Main(); }
