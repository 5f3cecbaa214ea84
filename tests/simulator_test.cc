// Tests for the fluid simulator: steady-state throughput, backpressure emergence,
// conservation, metrics, rate changes, and bit-exact replay of fixed-point ticks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

// A balanced placement computed greedily from the query's demands.
Placement BalancedPlacement(const QuerySpec& q, const PhysicalGraph& graph,
                            const Cluster& cluster) {
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  return GreedyBalancedPlacement(model);
}

TEST(FluidSimulatorTest, UnderloadedQueryReachesTargetWithoutBackpressure) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(5000.0);  // well below capacity
  QuerySummary s = sim.RunMeasured(30, 60);
  EXPECT_NEAR(s.throughput, 5000.0, 1.0);
  EXPECT_NEAR(s.backpressure, 0.0, 1e-6);
}

TEST(FluidSimulatorTest, OverloadedQueryShowsBackpressure) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(40000.0);  // ~2x the cluster's capacity for this query
  QuerySummary s = sim.RunMeasured(30, 60);
  EXPECT_LT(s.throughput, 30000.0);
  EXPECT_GT(s.backpressure, 0.1);
}

TEST(FluidSimulatorTest, SteadyStateConservation) {
  // At steady state, the sink rate must equal source rate times the product of
  // selectivities along the chain.
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(10000.0);
  QuerySummary s = sim.RunMeasured(60, 60);
  double expected_sink = 10000.0 * 0.9 * 0.05;  // map then window selectivity
  EXPECT_NEAR(s.sink_rate, expected_sink, expected_sink * 0.02);
}

TEST(FluidSimulatorTest, OperatorRatesFollowSelectivities) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(10000.0);
  sim.RunFor(90);
  double t = sim.time_s();
  EXPECT_NEAR(sim.OperatorInputRate(1, t - 30, t), 10000.0, 100.0);       // map
  EXPECT_NEAR(sim.OperatorInputRate(2, t - 30, t), 9000.0, 100.0);       // window
  EXPECT_NEAR(sim.OperatorOutputRate(2, t - 30, t), 450.0, 10.0);        // window out
}

TEST(FluidSimulatorTest, ColocatedPlanWorseThanBalancedPlan) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);

  // Pathological plan: all window tasks stacked on two workers.
  Placement bad(graph.num_tasks());
  int other = 0;
  for (const auto& task : graph.tasks()) {
    if (task.op == 2) {
      bad.Assign(task.id, task.index < 4 ? 0 : 1);
    } else {
      bad.Assign(task.id, 2 + (other++ % 2));
    }
  }
  ASSERT_EQ(bad.Validate(graph, cluster), "");

  FluidSimulator good_sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  FluidSimulator bad_sim(graph, cluster, bad);
  good_sim.SetAllSourceRates(14000.0);
  bad_sim.SetAllSourceRates(14000.0);
  QuerySummary good = good_sim.RunMeasured(60, 60);
  QuerySummary worse = bad_sim.RunMeasured(60, 60);
  EXPECT_GT(good.throughput, worse.throughput * 1.2);
  EXPECT_LT(good.backpressure, worse.backpressure);
}

TEST(FluidSimulatorTest, RateChangeTakesEffect) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(4000.0);
  sim.RunFor(40);
  double t1 = sim.time_s();
  double thr1 = sim.Summarize(t1 - 20, t1).throughput;
  sim.SetAllSourceRates(8000.0);
  sim.RunFor(40);
  double t2 = sim.time_s();
  double thr2 = sim.Summarize(t2 - 20, t2).throughput;
  EXPECT_NEAR(thr1, 4000.0, 50.0);
  EXPECT_NEAR(thr2, 8000.0, 100.0);
}

TEST(FluidSimulatorTest, PerSourceRatesIndependent) {
  QuerySpec q = BuildQ2Join();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetSourceRate(0, 5000.0);
  sim.SetSourceRate(1, 20000.0);
  sim.RunFor(60);
  double t = sim.time_s();
  EXPECT_NEAR(sim.OperatorEmitRate(0, t - 30, t), 5000.0, 100.0);
  EXPECT_NEAR(sim.OperatorEmitRate(1, t - 30, t), 20000.0, 300.0);
}

TEST(FluidSimulatorTest, TrueRatePerTaskReflectsContention) {
  QuerySpec q = BuildQ3Inf();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);

  // Inference (op 2) spread vs stacked.
  auto build = [&](bool stack) {
    Placement plan(graph.num_tasks());
    int spill = 1;
    for (const auto& task : graph.tasks()) {
      if (task.op == 2) {
        plan.Assign(task.id, stack ? 0 : task.index);
      } else {
        plan.Assign(task.id, spill++ % 4);
        if (stack && plan.WorkerOf(task.id) == 0) {
          plan.Assign(task.id, 1 + (spill % 3));
        }
      }
    }
    return plan;
  };
  Placement spread = build(false);
  Placement stacked = build(true);
  if (!spread.Validate(graph, cluster).empty() || !stacked.Validate(graph, cluster).empty()) {
    GTEST_SKIP() << "placement construction did not fit";
  }
  FluidSimulator a(graph, cluster, spread);
  FluidSimulator b(graph, cluster, stacked);
  for (auto* sim : {&a, &b}) {
    for (const auto& [op, r] : q.source_rates) {
      sim->SetSourceRate(op, r);
    }
    sim->RunFor(60);
  }
  double t = a.time_s();
  EXPECT_GT(a.OperatorTrueRatePerTask(2, t - 30, t),
            b.OperatorTrueRatePerTask(2, t - 30, t) * 1.1);
}

TEST(FluidSimulatorTest, WorkerMetricsRecorded) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(10000.0);
  sim.RunFor(20);
  for (WorkerId w = 0; w < 4; ++w) {
    EXPECT_NE(sim.metrics().Find(WorkerMetric(w, "cpu_util")), nullptr);
    EXPECT_NE(sim.metrics().Find(WorkerMetric(w, "io_util")), nullptr);
    EXPECT_NE(sim.metrics().Find(WorkerMetric(w, "net_util")), nullptr);
  }
  // Utilization in [0, 1].
  for (WorkerId w = 0; w < 4; ++w) {
    double u = sim.metrics().MeanSinceOr(WorkerMetric(w, "cpu_util"), 0, -1);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(FluidSimulatorTest, QueuesStayWithinCapacity) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  // Deliberately overload so queues fill.
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(50000.0);
  sim.RunFor(60);
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    // Capacity is 0.5 s of per-task input + small epsilon.
    EXPECT_LT(sim.QueueLength(t), 50000.0);
  }
}

TEST(FluidSimulatorTest, NetworkCapThrottlesLargeRecords) {
  QuerySpec q = BuildQ3Inf();
  Cluster capped(4, WorkerSpec::R5dXlarge(4));
  capped.SetNetBandwidth(50e6);  // very tight NIC
  Cluster fast(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Placement plan = BalancedPlacement(q, graph, fast);
  FluidSimulator slow_sim(graph, capped, plan);
  FluidSimulator fast_sim(graph, fast, plan);
  for (auto* sim : {&slow_sim, &fast_sim}) {
    for (const auto& [op, r] : q.source_rates) {
      sim->SetSourceRate(op, r);
    }
  }
  QuerySummary slow = slow_sim.RunMeasured(30, 60);
  QuerySummary quick = fast_sim.RunMeasured(30, 60);
  EXPECT_LT(slow.throughput, quick.throughput);
  EXPECT_GT(slow.backpressure, quick.backpressure);
}

TEST(FluidSimulatorTest, SummarizeWindowsAreDisjoint) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(2000.0);
  sim.RunFor(30);
  sim.SetAllSourceRates(6000.0);
  sim.RunFor(30);
  EXPECT_NEAR(sim.Summarize(5, 30).throughput, 2000.0, 100.0);
  EXPECT_NEAR(sim.Summarize(40, 60).throughput, 6000.0, 150.0);
}

// A window that ends before a fault reports that window's utilization, not utilization up
// to the present: the failing run must match a run that stopped at the window's end.
TEST(FluidSimulatorTest, SummarizeUtilizationEndsAtWindowEnd) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Placement plan = BalancedPlacement(q, graph, cluster);
  FluidSimulator failing(graph, cluster, plan);
  FluidSimulator healthy(graph, cluster, plan);
  for (auto* sim : {&failing, &healthy}) {
    sim->SetAllSourceRates(12000.0);
    sim->RunFor(30);
  }
  failing.FailWorker(plan.WorkerOf(0));
  failing.RunFor(30);
  QuerySummary before = failing.Summarize(5, 30);
  QuerySummary expected = healthy.Summarize(5, 30);
  EXPECT_GT(expected.max_worker_utilization.cpu, 0.0);
  EXPECT_EQ(before.max_worker_utilization.cpu, expected.max_worker_utilization.cpu);
  EXPECT_EQ(before.max_worker_utilization.io, expected.max_worker_utilization.io);
  EXPECT_EQ(before.max_worker_utilization.net, expected.max_worker_utilization.net);
}

// --- Steady-state replay ------------------------------------------------------------------

constexpr WorkerId kIdleWorker = 4;
constexpr int kScriptTicks = 900;

// Q1 placed on workers 0-3 of a five-worker cluster, so worker 4 hosts no task.
struct IdleWorkerFixture {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster{5, WorkerSpec::R5dXlarge(4)};
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Placement plan = BalancedPlacement(q, graph, Cluster(4, WorkerSpec::R5dXlarge(4)));
};

// Toggling the checkpoint I/O of a worker that hosts no task changes a worker input every
// tick, so no tick replays, while every metric stays what it would be without the toggle.
void ForceFullSolve(FluidSimulator& sim, int tick) {
  sim.SetWorkerCheckpointIoBps(kIdleWorker, tick % 2 == 0 ? 1e6 : 0.0);
}

// Scripted inputs through the public setters, applied before tick `tick`.
void ApplyScript(FluidSimulator& sim, int tick) {
  OperatorId source = sim.graph().logical().SourceIds().front();
  switch (tick) {
    case 0:
      sim.SetAllSourceRates(8000.0);
      break;
    case 150:
      sim.SetSourceRate(source, 12000.0);
      break;
    case 300:
      sim.FailWorker(1);
      break;
    case 380:
      sim.RestoreWorker(1);
      break;
    case 450:
      sim.DegradeWorker(2, 0.5);
      break;
    case 530:
      sim.DegradeWorker(2, 1.0);
      break;
    case 600:
      sim.SetWorkerCheckpointIoBps(0, 1.5e8);
      break;
    case 680:
      sim.ClearCheckpointIo();
      break;
    default:
      break;
  }
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

struct ScriptedRun {
  std::map<std::string, std::vector<uint64_t>> series;  // time and value bits, interleaved
  std::map<std::string, uint64_t> counters;             // all but sim.0.replayed_ticks
  std::vector<uint64_t> reads;                          // controller-facing Operator* reads
  std::string events;
  uint64_t replayed_ticks = 0;
};

ScriptedRun RunScript(bool force_full_solve) {
  IdleWorkerFixture f;
  FluidSimulator sim(f.graph, f.cluster, f.plan, /*metrics_interval_s=*/1.0);
  EventLog::Global().Reset();
  EventLog::Global().Enable();
  ScriptedRun run;
  for (int tick = 0; tick < kScriptTicks; ++tick) {
    ApplyScript(sim, tick);
    if (force_full_solve) {
      ForceFullSolve(sim, tick);
    }
    sim.RunFor(FluidSimulator::kTickS);
    if (tick % 40 == 39) {
      double t = sim.time_s();
      for (OperatorId op = 0; op < f.graph.num_operators(); ++op) {
        run.reads.push_back(Bits(sim.OperatorEmitRate(op, t - 4, t)));
        run.reads.push_back(Bits(sim.OperatorBackpressure(op, t - 4, t)));
        run.reads.push_back(Bits(sim.OperatorInputRate(op, t - 4, t)));
        run.reads.push_back(Bits(sim.OperatorOutputRate(op, t - 4, t)));
        run.reads.push_back(Bits(sim.OperatorTrueRatePerTask(op, t - 4, t)));
      }
    }
  }
  run.events = EventLog::Global().ToJsonLines();
  EventLog::Global().Disable();
  EventLog::Global().Reset();
  for (const std::string& name : sim.metrics().Names()) {
    std::vector<uint64_t>& bits = run.series[name];
    for (const TimeSeries::Point& p : sim.metrics().Find(name)->points()) {
      bits.push_back(Bits(p.time_s));
      bits.push_back(Bits(p.value));
    }
  }
  for (const std::string& name : sim.metrics().CounterNames()) {
    uint64_t value = sim.metrics().FindCounter(name)->Value();
    if (name == "sim.0.replayed_ticks") {
      run.replayed_ticks = value;
    } else {
      run.counters[name] = value;
    }
  }
  return run;
}

// Replaying fixed-point ticks must reproduce a run that solves every tick, bit for bit:
// every series, every counter, every controller-facing read and every event.
TEST(ReplayEquivalenceTest, MatchesFullSolveOnEveryTick) {
  IdleWorkerFixture f;
  for (TaskId t = 0; t < f.graph.num_tasks(); ++t) {
    ASSERT_NE(f.plan.WorkerOf(t), kIdleWorker);
  }
  ScriptedRun replayed = RunScript(/*force_full_solve=*/false);
  ScriptedRun solved = RunScript(/*force_full_solve=*/true);
  EXPECT_GT(replayed.replayed_ticks, 0u);
  EXPECT_EQ(solved.replayed_ticks, 0u);
  EXPECT_FALSE(replayed.series.empty());
  EXPECT_EQ(replayed.series, solved.series);
  EXPECT_EQ(replayed.counters, solved.counters);
  EXPECT_EQ(replayed.reads, solved.reads);
  EXPECT_FALSE(replayed.events.empty());
  EXPECT_EQ(replayed.events, solved.events);
}

// A driver re-applies the in-flight checkpoint I/O every control interval by clearing it
// and setting it again. An unchanged value must not end a replay.
TEST(FluidSimulatorTest, ReappliedCheckpointIoKeepsReplaying) {
  IdleWorkerFixture f;
  FluidSimulator sim(f.graph, f.cluster, f.plan);
  sim.SetAllSourceRates(8000.0);
  sim.SetWorkerCheckpointIoBps(0, 1.5e8);
  sim.RunFor(30);
  const Counter* replayed = sim.metrics().FindCounter("sim.0.replayed_ticks");
  ASSERT_NE(replayed, nullptr);
  uint64_t before = replayed->Value();
  sim.Step();
  ASSERT_EQ(replayed->Value(), before + 1) << "the run did not reach a fixed point";
  for (int i = 0; i < 50; ++i) {
    sim.ClearCheckpointIo();
    sim.SetWorkerCheckpointIoBps(0, 1.5e8);
    sim.Step();
  }
  EXPECT_EQ(replayed->Value(), before + 51);
  sim.SetWorkerCheckpointIoBps(0, 1e8);  // a changed value ends it
  sim.Step();
  EXPECT_EQ(replayed->Value(), before + 51);
}

TEST(MetricsTest, TimeSeriesMeanOverWindow) {
  TimeSeries ts;
  ts.Record(1.0, 10.0);
  ts.Record(2.0, 20.0);
  ts.Record(3.0, 30.0);
  EXPECT_EQ(ts.MeanOver(1.5, 3.0), 25.0);
  EXPECT_EQ(ts.Mean(), 20.0);
  EXPECT_EQ(ts.Last(), 30.0);
  EXPECT_EQ(ts.LastTime(), 3.0);
}

TEST(MetricsTest, RegistryLookupAndFallback) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.Find("absent"), nullptr);
  EXPECT_EQ(reg.LastOr("absent", -1.0), -1.0);
  reg.Record("a.b", 1.0, 5.0);
  EXPECT_EQ(reg.LastOr("a.b", -1.0), 5.0);
  EXPECT_EQ(reg.Names().size(), 1u);
  reg.Clear();
  EXPECT_EQ(reg.Find("a.b"), nullptr);
}

TEST(MetricsTest, MetricNameBuilders) {
  EXPECT_EQ(TaskMetric(3, "true_rate"), "task.3.true_rate");
  EXPECT_EQ(WorkerMetric(1, "cpu_util"), "worker.1.cpu_util");
  EXPECT_EQ(OperatorMetric(2, "emit_rate"), "op.2.emit_rate");
  EXPECT_EQ(QueryMetric("q1", "throughput"), "query.q1.throughput");
}

}  // namespace
}  // namespace capsys
