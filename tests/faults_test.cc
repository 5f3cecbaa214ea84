// Tests for the chaos engine (robustness extension): fault schedules and injection,
// heartbeat failure detection with suspicion and flap blacklisting, graceful degraded-mode
// recovery, and the end-to-end chaos experiment driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/controller/chaos_experiments.h"
#include "src/controller/failure_detector.h"
#include "src/controller/recovery.h"
#include "src/dataflow/rates.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_schedule.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

// --- FaultSchedule ---------------------------------------------------------------------------

TEST(FaultScheduleTest, ExpandFlattensCompoundEventsInTimeOrder) {
  FaultSchedule s;
  s.Slowdown(50.0, 2, 0.3, 30.0);  // degrade at 50, restore at 80
  s.Flap(10.0, 1, 20.0, 2);        // crashes at 10, 30; restores at 20, 40
  s.Crash(5.0, 0);
  std::vector<PrimitiveFault> prims = s.Expand();
  ASSERT_EQ(prims.size(), 7u);
  for (size_t i = 1; i < prims.size(); ++i) {
    EXPECT_LE(prims[i - 1].time_s, prims[i].time_s);
  }
  EXPECT_EQ(prims[0].kind, PrimitiveFault::Kind::kCrash);  // t=5 crash w0
  EXPECT_EQ(prims[0].worker, 0);
  EXPECT_EQ(prims[1].kind, PrimitiveFault::Kind::kCrash);  // t=10 flap down
  EXPECT_EQ(prims[1].worker, 1);
  EXPECT_EQ(prims[2].kind, PrimitiveFault::Kind::kRestore);  // t=20 flap up
  // The slowdown expands into a degrade/restore pair.
  EXPECT_EQ(prims[5].kind, PrimitiveFault::Kind::kSetDegrade);
  EXPECT_DOUBLE_EQ(prims[5].value, 0.3);
  EXPECT_EQ(prims[6].kind, PrimitiveFault::Kind::kSetDegrade);
  EXPECT_DOUBLE_EQ(prims[6].value, 1.0);
  EXPECT_DOUBLE_EQ(prims[6].time_s, 80.0);
}

TEST(FaultScheduleTest, RandomScheduleIsSeedDeterministic) {
  FaultSchedule::RandomOptions options;
  FaultSchedule a = FaultSchedule::Random(6, options, 42);
  FaultSchedule b = FaultSchedule::Random(6, options, 42);
  FaultSchedule c = FaultSchedule::Random(6, options, 43);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultScheduleTest, RandomScheduleRespectsBlastRadius) {
  // The full mix: crash and flap outages share the cap, while slowdowns and metric
  // dropouts take no worker down.
  FaultSchedule::RandomOptions options;
  options.num_faults = 30;
  FaultSchedule s = FaultSchedule::Random(4, options, 7);
  int crashes = 0;
  int flaps = 0;
  for (const FaultEvent& e : s.events()) {
    crashes += e.type == FaultType::kCrash ? 1 : 0;
    flaps += e.type == FaultType::kFlap ? 1 : 0;
  }
  EXPECT_GT(crashes, 0);
  EXPECT_GT(flaps, 0);
  // Replay the primitive timeline and check the cap on simultaneously down workers holds
  // once every transition at a time stamp has been applied.
  std::vector<bool> down(4, false);
  std::vector<PrimitiveFault> prims = s.Expand();
  long most_down = 0;
  for (size_t i = 0; i < prims.size(); ++i) {
    const PrimitiveFault& p = prims[i];
    if (p.kind == PrimitiveFault::Kind::kCrash) {
      down[static_cast<size_t>(p.worker)] = true;
    } else if (p.kind == PrimitiveFault::Kind::kRestore) {
      down[static_cast<size_t>(p.worker)] = false;
    }
    if (i + 1 < prims.size() && prims[i + 1].time_s == p.time_s) {
      continue;
    }
    long n = std::count(down.begin(), down.end(), true);
    EXPECT_LE(n, FaultSchedule::kMaxConcurrentCrashes) << "t=" << p.time_s;
    most_down = std::max(most_down, n);
  }
  EXPECT_EQ(most_down, FaultSchedule::kMaxConcurrentCrashes);  // the cap binds
}

// --- Simulator degradation ------------------------------------------------------------------

FluidSimulator MakeQ1Sim(const Cluster& cluster, double rate) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  FluidSimulator sim(graph, cluster, GreedyBalancedPlacement(model));
  sim.SetAllSourceRates(rate);
  return sim;
}

TEST(DegradeWorkerTest, StragglerSlowsButDoesNotStopThroughput) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  FluidSimulator sim = MakeQ1Sim(cluster, 20000.0);
  sim.RunFor(30);
  double healthy = sim.Summarize(sim.time_s() - 15, sim.time_s()).throughput;
  sim.DegradeWorker(0, 0.2);
  EXPECT_DOUBLE_EQ(sim.WorkerDegradeFactor(0), 0.2);
  sim.RunFor(30);
  double degraded = sim.Summarize(sim.time_s() - 15, sim.time_s()).throughput;
  EXPECT_LT(degraded, healthy * 0.9);  // visibly slower...
  EXPECT_GT(degraded, 0.0);            // ...but alive, unlike a crash
  sim.DegradeWorker(0, 1.0);
  sim.RunFor(40);
  double restored = sim.Summarize(sim.time_s() - 15, sim.time_s()).throughput;
  EXPECT_NEAR(restored, healthy, healthy * 0.05);
}

// --- Failure detector ------------------------------------------------------------------------

TEST(FailureDetectorTest, SilentWorkerProgressesSuspectedThenDead) {
  FailureDetector det(2);
  // Both workers beat at t=1; then w1 goes silent.
  det.RecordHeartbeat(0, 1.0);
  det.RecordHeartbeat(1, 1.0);
  std::vector<WorkerId> dead;
  for (double now = 2.0; now <= 16.0; now += 1.0) {
    det.RecordHeartbeat(0, now);
    for (WorkerId w : det.Tick(now)) {
      dead.push_back(w);
    }
    if (now < 1.0 + FailureDetector::kTimeoutS) {
      EXPECT_EQ(det.HealthOf(1), WorkerHealth::kAlive) << "t=" << now;
    }
  }
  ASSERT_EQ(dead.size(), 1u);  // declared exactly once
  EXPECT_EQ(dead[0], 1);
  EXPECT_EQ(det.HealthOf(1), WorkerHealth::kDead);
  EXPECT_EQ(det.HealthOf(0), WorkerHealth::kAlive);
  EXPECT_FALSE(det.IsUsable(1, 16.0));
  // A heartbeat brings it back.
  det.RecordHeartbeat(1, 17.0);
  EXPECT_EQ(det.HealthOf(1), WorkerHealth::kAlive);
  EXPECT_TRUE(det.IsUsable(1, 17.0));
}

TEST(FailureDetectorTest, StragglerIsSuspectedButNeverDeclaredDead) {
  FailureDetector det(1);
  // A degraded worker beats every 4 s: slower than the 3 s timeout (so it accumulates one
  // miss and gets suspected) but never 3 consecutive misses.
  bool ever_suspected = false;
  double last_beat = 0.0;
  for (double now = 0.5; now <= 120.0; now += 0.5) {
    if (now - last_beat >= 4.0) {
      det.RecordHeartbeat(0, now);
      last_beat = now;
    }
    EXPECT_TRUE(det.Tick(now).empty()) << "straggler declared dead at t=" << now;
    ever_suspected = ever_suspected || det.HealthOf(0) == WorkerHealth::kSuspected;
    EXPECT_TRUE(det.IsUsable(0, now));  // suspicion must not evict it from placement
  }
  EXPECT_TRUE(ever_suspected);
  EXPECT_EQ(det.deaths_declared(), 0);
}

TEST(FailureDetectorTest, FlappingWorkerIsBlacklistedWithBackoff) {
  // Two deaths within the 120 s flap window blacklist the worker for 30 s.
  FailureDetector det(1);
  // Cycle: silent long enough to die, then one beat, repeated.
  double now = 0.0;
  auto kill_once = [&]() {
    det.RecordHeartbeat(0, now);
    int deaths = 0;
    for (int i = 0; i < 20 && deaths == 0; ++i) {
      now += 1.0;
      deaths = static_cast<int>(det.Tick(now).size());
    }
    EXPECT_EQ(deaths, 1);
  };
  kill_once();
  EXPECT_FALSE(det.IsBlacklisted(0, now));  // one death is not flapping
  kill_once();
  EXPECT_TRUE(det.IsBlacklisted(0, now));  // two deaths within the window
  double until_first = det.BlacklistedUntil(0);
  EXPECT_NEAR(until_first - now, 30.0, 1e-9);
  EXPECT_FALSE(det.IsUsable(0, now));
  // Blacklisted-but-beating is still not usable until the backoff expires.
  det.RecordHeartbeat(0, now);
  EXPECT_FALSE(det.IsUsable(0, now + 1.0));
  EXPECT_TRUE(det.IsUsable(0, until_first + 1.0));
  // A third death doubles the backoff.
  kill_once();
  EXPECT_NEAR(det.BlacklistedUntil(0) - now, 60.0, 1e-9);
}

// --- Injector heartbeats ---------------------------------------------------------------------

TEST(FaultInjectorTest, CrashedWorkerEmitsNoHeartbeatsUntilRestored) {
  FaultSchedule s;
  s.Crash(5.0, 1).Restore(10.0, 1);
  FaultInjector injector(s, 2, 3);
  std::vector<int> beats(2, 0);
  for (double now = 1.0; now <= 20.0; now += 1.0) {
    injector.AdvanceTo(now, nullptr);
    for (WorkerId w : injector.CollectHeartbeats(now)) {
      ++beats[static_cast<size_t>(w)];
    }
    if (now >= 5.0 && now < 10.0) {
      EXPECT_TRUE(injector.IsCrashed(1));
    }
  }
  EXPECT_EQ(beats[0], 20);          // healthy worker beats every interval
  EXPECT_GT(beats[1], 10);          // crashed 5 s out of 20
  EXPECT_LT(beats[1], beats[0]);
  EXPECT_FALSE(injector.IsCrashed(1));
}

TEST(FaultInjectorTest, MetricDropoutLosesHeartbeats) {
  constexpr int kWorkers = 6;
  FaultSchedule s;
  s.MetricDropout(20.0, 0.3, 60.0);  // beats due in [20, 80) are lost w.p. 0.3
  FaultInjector injector(s, kWorkers, 5);
  int due_in_episode = 0;
  int delivered_in_episode = 0;
  for (double now = 1.0; now <= 100.0; now += 1.0) {
    injector.AdvanceTo(now, nullptr);
    int delivered = static_cast<int>(injector.CollectHeartbeats(now).size());
    if (now >= 20.0 && now < 80.0) {
      due_in_episode += kWorkers;
      delivered_in_episode += delivered;
    } else {
      EXPECT_EQ(delivered, kWorkers) << "t=" << now;  // outside the episode every beat arrives
    }
  }
  ASSERT_EQ(due_in_episode, 360);
  double share = static_cast<double>(delivered_in_episode) / due_in_episode;
  EXPECT_GE(share, 0.6);
  EXPECT_LE(share, 0.8);
}

// --- Recovery planning -----------------------------------------------------------------------

DeployOptions CheapDeploy() {
  DeployOptions o;
  o.policy = PlacementPolicy::kFlinkEvenly;
  o.use_ds2_sizing = true;
  o.seed = 1;
  return o;
}

TEST(RecoveryTest, FullWidthWhenSurvivorsHaveRoom) {
  Cluster cluster(6, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  CapsysController controller(cluster, CheapDeploy());
  Deployment d = controller.Deploy(q);
  std::vector<bool> usable(6, true);
  usable[1] = false;
  RecoveryPlan plan = PlanRecovery(d.graph, d.source_rates, d.costs, cluster, usable,
                                   CheapDeploy());
  EXPECT_EQ(plan.outcome, RecoveryOutcome::kRecoveredFull);
  EXPECT_EQ(plan.graph.total_parallelism(), d.graph.total_parallelism());
  for (TaskId t = 0; t < plan.physical.num_tasks(); ++t) {
    EXPECT_NE(plan.placement.WorkerOf(t), 1);  // never lands on the dead worker
  }
}

TEST(RecoveryTest, DownScalesWhenSlotsAreShort) {
  Cluster cluster(6, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  q.ScaleRates(2.0);  // widen the query past one worker's slot budget
  CapsysController controller(cluster, CheapDeploy());
  Deployment d = controller.Deploy(q);
  ASSERT_GT(d.graph.total_parallelism(), 4);
  std::vector<bool> usable(6, false);
  usable[0] = true;  // one 4-slot worker survives
  RecoveryPlan plan = PlanRecovery(d.graph, d.source_rates, d.costs, cluster, usable,
                                   CheapDeploy());
  EXPECT_EQ(plan.outcome, RecoveryOutcome::kRecoveredDegraded);
  EXPECT_LE(plan.graph.total_parallelism(), 4);
  EXPECT_GE(plan.graph.total_parallelism(), static_cast<int>(d.graph.operators().size()));
  EXPECT_GT(plan.sustainable_rate, 0.0);
  EXPECT_LT(plan.sustainable_rate, q.TotalTargetRate());
  for (TaskId t = 0; t < plan.physical.num_tasks(); ++t) {
    EXPECT_EQ(plan.placement.WorkerOf(t), 0);
  }
}

TEST(RecoveryTest, UnplaceableIsStructuredNotFatal) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  CapsysController controller(cluster, CheapDeploy());
  Deployment d = controller.Deploy(q);
  std::vector<bool> nobody(4, false);
  RecoveryPlan plan = PlanRecovery(d.graph, d.source_rates, d.costs, cluster, nobody,
                                   CheapDeploy());
  EXPECT_EQ(plan.outcome, RecoveryOutcome::kUnplaceable);
  EXPECT_FALSE(plan.Placeable());
}

// --- End-to-end chaos runs -------------------------------------------------------------------

ChaosExperimentOptions FastChaos() {
  ChaosExperimentOptions o;
  o.policy = PlacementPolicy::kFlinkEvenly;  // deterministic and cheap to re-place
  o.run_s = 180.0;
  o.seed = 11;
  o.upscale_cooldown_s = 20.0;
  return o;
}

TEST(ChaosExperimentTest, SlotShortageDownScalesInsteadOfAborting) {
  Cluster cluster(6, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  q.ScaleRates(2.0);  // DS2 sizes the query wider than one worker
  // Five of six workers die and stay down: full parallelism no longer fits anywhere.
  FaultSchedule s;
  for (WorkerId w = 1; w < 6; ++w) {
    s.Crash(40.0, w);
  }
  ChaosRun run = RunChaosExperiment(q, cluster, s, FastChaos());
  EXPECT_EQ(run.last_outcome, RecoveryOutcome::kRecoveredDegraded);
  EXPECT_GE(run.reconfigurations, 1);
  EXPECT_LE(run.final_slots, 4);
  // The degraded deployment still processes data at the end of the run.
  ASSERT_FALSE(run.timeline.empty());
  EXPECT_GT(run.timeline.back().throughput, 0.0);
}

TEST(ChaosExperimentTest, TotalClusterLossYieldsUnplaceableVerdict) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  FaultSchedule s;
  for (WorkerId w = 0; w < 4; ++w) {
    s.Crash(30.0, w);
  }
  ChaosExperimentOptions o = FastChaos();
  o.run_s = 120.0;
  ChaosRun run = RunChaosExperiment(q, cluster, s, o);  // must not abort
  EXPECT_EQ(run.last_outcome, RecoveryOutcome::kUnplaceable);
  EXPECT_GE(run.unplaceable_verdicts, 1);
  EXPECT_EQ(run.false_positives, 0);
}

TEST(ChaosExperimentTest, StragglerAloneCausesNoDeathsOrReconfigurations) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  FaultSchedule s;
  s.Slowdown(40.0, 2, 0.25, 60.0);
  ChaosExperimentOptions o = FastChaos();
  o.run_s = 150.0;
  ChaosRun run = RunChaosExperiment(q, cluster, s, o);
  EXPECT_EQ(run.deaths_declared, 0);
  EXPECT_EQ(run.false_positives, 0);
  EXPECT_EQ(run.reconfigurations, 0);
  EXPECT_EQ(run.last_outcome, RecoveryOutcome::kRecoveredFull);
}

TEST(ChaosExperimentTest, SameSeedYieldsIdenticalRecoveryTimeline) {
  Cluster cluster(5, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  FaultSchedule s;
  s.Crash(30.0, 1).Restore(90.0, 1);
  s.Slowdown(50.0, 2, 0.3, 20.0);
  s.MetricDropout(40.0, 0.4, 30.0);
  ChaosRun a = RunChaosExperiment(q, cluster, s, FastChaos());
  ChaosRun b = RunChaosExperiment(q, cluster, s, FastChaos());
  EXPECT_EQ(a.ToString(), b.ToString());
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.timeline[i].throughput, b.timeline[i].throughput) << "sample " << i;
    EXPECT_EQ(a.timeline[i].slots, b.timeline[i].slots);
  }
  EXPECT_EQ(a.reconfig_times_s, b.reconfig_times_s);
}

namespace {

// PlacementDecision events carry decision_time_s, the one wall-clock measurement in the
// event log (how long the placement search took on this machine). Blank it out so the
// comparison covers every simulated quantity byte-for-byte.
std::string StripWallClockFields(std::string log) {
  const std::string key = "\"decision_time_s\":";
  size_t pos = 0;
  while ((pos = log.find(key, pos)) != std::string::npos) {
    size_t value_begin = pos + key.size();
    size_t value_end = log.find_first_of(",}", value_begin);
    if (value_end == std::string::npos) {
      break;
    }
    log.replace(value_begin, value_end - value_begin, "0");
    pos = value_begin;
  }
  return log;
}

}  // namespace

TEST(ChaosExperimentTest, SameSeedYieldsByteIdenticalEventLog) {
  Cluster cluster(5, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  FaultSchedule s;
  s.Crash(30.0, 1).Restore(90.0, 1);
  s.CheckpointFailureStorm(50.0, 20.0);
  s.MetricDropout(40.0, 0.4, 30.0);
  ChaosExperimentOptions o = FastChaos();
  o.search_threads = 1;  // multi-threaded search ties break non-deterministically
  EventLog& log = EventLog::Global();
  log.Enable();
  log.Reset();
  RunChaosExperiment(q, cluster, s, o);
  std::string first = StripWallClockFields(log.ToJsonLines());
  log.Reset();
  RunChaosExperiment(q, cluster, s, o);
  std::string second = StripWallClockFields(log.ToJsonLines());
  log.Disable();
  log.Reset();
  ASSERT_FALSE(first.empty());
  // Every event — faults, detector verdicts, checkpoints, restores — replays identically.
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace capsys
