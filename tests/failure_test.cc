// Tests for failure injection in the simulator and single-crash recovery through the chaos
// control loop.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/controller/chaos_experiments.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

TEST(FailureInjectionTest, FailedWorkerStopsProcessing) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  FluidSimulator sim(graph, cluster, GreedyBalancedPlacement(model));
  sim.SetAllSourceRates(10000.0);
  sim.RunFor(30);
  double before = sim.Summarize(sim.time_s() - 15, sim.time_s()).throughput;
  sim.FailWorker(0);
  EXPECT_TRUE(sim.IsWorkerFailed(0));
  sim.RunFor(30);
  double after = sim.Summarize(sim.time_s() - 15, sim.time_s()).throughput;
  EXPECT_NEAR(before, 10000.0, 100.0);
  EXPECT_LT(after, before * 0.8);  // the pipeline stalls behind the dead worker
}

TEST(FailureInjectionTest, RestoreResumesProcessing) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  FluidSimulator sim(graph, cluster, GreedyBalancedPlacement(model));
  sim.SetAllSourceRates(8000.0);
  sim.RunFor(20);
  sim.FailWorker(1);
  sim.RunFor(20);
  sim.RestoreWorker(1);
  EXPECT_FALSE(sim.IsWorkerFailed(1));
  sim.RunFor(40);
  double t = sim.time_s();
  EXPECT_NEAR(sim.Summarize(t - 15, t).throughput, 8000.0, 200.0);
}

TEST(FailureInjectionTest, FailedSourceWorkerStopsEmission) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(5));  // 5 slots: 14 non-source tasks fit on 3
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  // Put both source tasks on worker 3.
  Placement plan(graph.num_tasks());
  int w = 0;
  for (const auto& t : graph.tasks()) {
    plan.Assign(t.id, t.op == 0 ? 3 : (w++ % 3));
  }
  ASSERT_EQ(plan.Validate(graph, cluster), "");
  FluidSimulator sim(graph, cluster, plan);
  sim.SetAllSourceRates(8000.0);
  sim.RunFor(20);
  sim.FailWorker(3);
  sim.RunFor(20);
  double t = sim.time_s();
  EXPECT_LT(sim.Summarize(t - 10, t).throughput, 100.0);
}

// The busiest worker of the initial deployment dies at `fail_at_s`: a one-event fault
// schedule for the chaos loop. The victim comes from a Deploy with the same policy and seed.
ChaosRun RunSingleCrash(const QuerySpec& q, const Cluster& cluster,
                        const ChaosExperimentOptions& options, double fail_at_s,
                        WorkerId* victim) {
  DeployOptions deploy;
  deploy.policy = options.policy;
  deploy.use_ds2_sizing = true;
  deploy.seed = options.seed;
  std::vector<int> load =
      CapsysController(cluster, deploy).Deploy(q).placement.LoadByWorker(cluster);
  *victim = static_cast<WorkerId>(std::max_element(load.begin(), load.end()) - load.begin());
  return RunChaosExperiment(q, cluster, FaultSchedule().Crash(fail_at_s, *victim), options);
}

TEST(FailureRecoveryTest, CapsRecoversToTarget) {
  Cluster cluster(6, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  const double target = q.TotalTargetRate();
  ChaosExperimentOptions options;
  options.policy = PlacementPolicy::kCaps;
  options.run_s = 240.0;
  WorkerId victim = kInvalidId;
  ChaosRun run = RunSingleCrash(q, cluster, options, 60.0, &victim);
  ASSERT_EQ(run.reconfigurations, 1);
  const double replaced_s = run.reconfig_times_s.front();
  EXPECT_GT(replaced_s, 60.0);
  double before = 0.0;
  double during = 1e300;
  double recovered_s = -1.0;
  for (const TimelinePoint& p : run.timeline) {
    if (p.time_s <= 60.0) {
      before = p.throughput;
    } else if (p.time_s <= replaced_s) {
      during = std::min(during, p.throughput);
    } else if (recovered_s < 0.0 && p.throughput >= 0.95 * target) {
      recovered_s = p.time_s;
    }
  }
  EXPECT_NEAR(before, target, target * 0.05);
  EXPECT_LT(during, before);
  EXPECT_GT(recovered_s, replaced_s);
  EXPECT_EQ(run.last_outcome, RecoveryOutcome::kRecoveredFull);
  EXPECT_NEAR(run.timeline.back().throughput, target, target * 0.05);
}

TEST(FailureRecoveryTest, VictimIsBusiestWorker) {
  Cluster cluster(6, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  ChaosExperimentOptions options;
  options.run_s = 120.0;
  WorkerId victim = kInvalidId;
  ChaosRun run = RunSingleCrash(q, cluster, options, 30.0, &victim);
  EXPECT_GE(victim, 0);
  EXPECT_LT(victim, cluster.num_workers());
  // The one crash is the only death the detector declares, and it is real.
  EXPECT_EQ(run.deaths_declared, 1);
  EXPECT_EQ(run.false_positives, 0);
  ASSERT_FALSE(run.timeline.empty());
  // Timeline is monotone and covers the full run.
  double prev = 0.0;
  for (const auto& p : run.timeline) {
    EXPECT_GT(p.time_s, prev);
    prev = p.time_s;
  }
  EXPECT_GE(prev, options.run_s - 10.0);
}

}  // namespace
}  // namespace capsys
