// Variable-workload experiment drivers (paper §6.4): run a query under a schedule of target
// rates with DS2 deciding when to rescale, and the selected placement policy computing each
// new plan. Produces the data behind Table 4 (auto-scaling accuracy) and Figure 9
// (auto-scaling convergence).
#ifndef SRC_CONTROLLER_SCALING_EXPERIMENTS_H_
#define SRC_CONTROLLER_SCALING_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "src/controller/deployment.h"

namespace capsys {

// DS2 timing follows the paper's §6.4 setup and is fixed in the driver: activation time
// 90 s, policy interval 5 s over a 30 s metrics window, and a 5 s restart blackout per
// reconfiguration (sources stay blocked while the job restarts, which makes extra scaling
// decisions costly, as on Flink).
struct ScalingExperimentOptions {
  PlacementPolicy policy = PlacementPolicy::kCaps;
  // Duration of each rate step (paper: 600 s / 1200 s; shorter values keep benches fast —
  // the fluid model reaches steady state within ~30 s).
  double step_duration_s = 240.0;
  // Start from the manually tuned optimal configuration (Table 4) instead of parallelism 1
  // with the policy's own initial plan (Figure 9).
  bool start_optimal = true;
  uint64_t seed = 1;
};

struct TimelinePoint {
  double time_s = 0.0;
  double target_rate = 0.0;
  double throughput = 0.0;
  int slots = 0;
};

struct StepEval {
  double target_rate = 0.0;
  double throughput = 0.0;     // mean over the step's final window
  int slots = 0;               // slots in use at the end of the step
  int min_slots = 0;           // ground-truth minimal slots for the target
  bool met_target = false;     // Table 4 "Throughput" column
  bool overprovisioned = false;  // Table 4 "Resources" column (X when over)
  int scaling_decisions = 0;   // decisions taken during this step

  std::string ToString() const;
};

struct ScalingRun {
  std::vector<TimelinePoint> timeline;      // sampled every policy interval
  std::vector<double> decision_times_s;     // when reconfigurations happened
  std::vector<StepEval> steps;
  int total_decisions = 0;
};

// Runs the experiment: `rate_steps` gives the target source rate (scaled per source by its
// share in `query.source_rates`) for each consecutive step.
ScalingRun RunScalingExperiment(const QuerySpec& query, const Cluster& cluster,
                                const std::vector<double>& rate_steps,
                                const ScalingExperimentOptions& options);

}  // namespace capsys

#endif  // SRC_CONTROLLER_SCALING_EXPERIMENTS_H_
