// Tests for the fluid simulator: steady-state throughput, backpressure emergence,
// conservation, metrics, rate changes, window reads, and bit-exact replay of fixed-point
// ticks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/common/rng.h"
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
  MetricsRegistry metrics = sim.ExportMetrics();
  for (WorkerId w = 0; w < 4; ++w) {
    for (const char* metric : {"cpu_util", "io_util", "net_util"}) {
      const TimeSeries* ts = metrics.Find(WorkerMetric(w, metric));
      ASSERT_NE(ts, nullptr) << metric;
      EXPECT_EQ(ts->points().size(), 4u) << metric;  // one point per 5 s flush
      for (const TimeSeries::Point& p : ts->points()) {
        EXPECT_GE(p.value, 0.0) << metric;
        EXPECT_LE(p.value, 1.0) << metric;
      }
    }
  }
  EXPECT_EQ(metrics.Find(TaskMetric(0, "observed_rate")), nullptr);
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

// --- Window reads -------------------------------------------------------------------------

// Mean of the exported points of `name` stamped in [from_s, to_s], by a linear scan; 0 when
// the series does not exist or no point is in the window.
double NaiveMean(const MetricsRegistry& metrics, const std::string& name, double from_s,
                 double to_s) {
  const TimeSeries* ts = metrics.Find(name);
  if (ts == nullptr) {
    return 0.0;
  }
  double sum = 0.0;
  int n = 0;
  for (const TimeSeries::Point& p : ts->points()) {
    if (p.time_s >= from_s && p.time_s <= to_s) {
      sum += p.value;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

// Q1 on four workers, flushed every second, with a rate step at 5 s and a failed worker
// from 60 s to 80 s, so that consecutive flushes differ.
struct WindowFixture {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster{4, WorkerSpec::R5dXlarge(4)};
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim{graph, cluster, BalancedPlacement(q, graph, cluster),
                     /*metrics_interval_s=*/1.0};

  explicit WindowFixture(double seconds) {
    sim.SetAllSourceRates(2000.0);
    for (double t = 0.0; t < seconds; t += 1.0) {
      if (t == 5.0) {
        sim.SetAllSourceRates(12000.0);
      } else if (t == 60.0) {
        sim.FailWorker(1);
      } else if (t == 80.0) {
        sim.RestoreWorker(1);
      }
      sim.RunFor(1.0);
    }
  }
};

TEST(SimulatorWindowTest, BothWindowEndsAreInclusive) {
  WindowFixture f(10.0);
  MetricsRegistry metrics = f.sim.ExportMetrics();
  const std::vector<TimeSeries::Point>& pts = metrics.Find("query.throughput")->points();
  ASSERT_EQ(pts.size(), 10u);
  for (const TimeSeries::Point& p : pts) {
    EXPECT_EQ(f.sim.Throughput(p.time_s, p.time_s), p.value);
  }
  // Points 3 and 4 precede the rate step's effect and 6 follows it, so dropping either end
  // of [t3, t6] would move the mean.
  double t3 = pts[3].time_s;
  double t6 = pts[6].time_s;
  double both = NaiveMean(metrics, "query.throughput", t3, t6);
  EXPECT_NEAR(f.sim.Throughput(t3, t6), both, 1e-9 * both);
  EXPECT_GT(std::abs(both - NaiveMean(metrics, "query.throughput", pts[4].time_s, t6)), 1.0);
  EXPECT_GT(std::abs(both - NaiveMean(metrics, "query.throughput", t3, pts[5].time_s)), 1.0);
}

TEST(SimulatorWindowTest, EmptyOrInvertedWindowReadsZero) {
  WindowFixture f(10.0);
  MetricsRegistry metrics = f.sim.ExportMetrics();
  const std::vector<TimeSeries::Point>& pts = metrics.Find("query.throughput")->points();
  ASSERT_EQ(pts.size(), 10u);
  const std::pair<double, double> windows[] = {
      {pts[6].time_s, pts[3].time_s},                // inverted
      {pts[3].time_s + 0.01, pts[4].time_s - 0.01},  // between two flushes
      {-10.0, pts[0].time_s - 0.01},                 // before the first flush
      {pts[9].time_s + 0.01, 1e9},                   // after the last flush
  };
  for (const auto& [from, to] : windows) {
    EXPECT_EQ(f.sim.Throughput(from, to), 0.0) << from << " " << to;
    QuerySummary s = f.sim.Summarize(from, to);
    EXPECT_EQ(s.backpressure, 0.0);
    EXPECT_EQ(s.latency_s, 0.0);
    EXPECT_EQ(s.max_worker_utilization.cpu, 0.0);
    for (OperatorId op = 0; op < f.graph.num_operators(); ++op) {
      EXPECT_EQ(f.sim.OperatorInputRate(op, from, to), 0.0);
      EXPECT_EQ(f.sim.OperatorTrueRatePerTask(op, from, to), 0.0);
      EXPECT_EQ(f.sim.OperatorUsage(op, from, to).cpu, 0.0);
    }
  }
}

TEST(SimulatorWindowTest, OutOfRangeEntityReadsZero) {
  WindowFixture f(10.0);
  double t = f.sim.time_s();
  ASSERT_GT(f.sim.Throughput(0, t), 0.0);
  for (OperatorId op : {OperatorId{-1}, OperatorId{f.graph.num_operators()}}) {
    EXPECT_EQ(f.sim.OperatorEmitRate(op, 0, t), 0.0);
    EXPECT_EQ(f.sim.OperatorBackpressure(op, 0, t), 0.0);
    EXPECT_EQ(f.sim.OperatorInputRate(op, 0, t), 0.0);
    EXPECT_EQ(f.sim.OperatorOutputRate(op, 0, t), 0.0);
    EXPECT_EQ(f.sim.OperatorTrueRatePerTask(op, 0, t), 0.0);
    ResourceVector used = f.sim.OperatorUsage(op, 0, t);
    EXPECT_EQ(used.cpu + used.io + used.net, 0.0);
  }
  ResourceVector used = f.sim.WorkerUsage(f.cluster.num_workers(), 0, t);
  EXPECT_EQ(used.cpu + used.io + used.net, 0.0);
}

TEST(SimulatorWindowTest, ReadBeforeFirstFlushReadsZero) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  FluidSimulator sim(graph, cluster, BalancedPlacement(q, graph, cluster));
  sim.SetAllSourceRates(5000.0);
  sim.RunFor(2.0);  // the first flush is at 5 s
  double t = sim.time_s();
  EXPECT_EQ(sim.Throughput(0, t), 0.0);
  EXPECT_EQ(sim.Summarize(0, t).sink_rate, 0.0);
  for (OperatorId op = 0; op < graph.num_operators(); ++op) {
    EXPECT_EQ(sim.OperatorEmitRate(op, 0, t), 0.0);
    EXPECT_EQ(sim.OperatorOutputRate(op, 0, t), 0.0);
    EXPECT_EQ(sim.OperatorTrueRatePerTask(op, 0, t), 0.0);
    EXPECT_EQ(sim.OperatorUsage(op, 0, t).net, 0.0);
  }
  EXPECT_EQ(sim.WorkerUsage(0, 0, t).cpu, 0.0);
  MetricsRegistry metrics = sim.ExportMetrics();
  EXPECT_TRUE(metrics.Names().empty());
  EXPECT_EQ(metrics.FindCounter("sim.0.flushes")->Value(), 0u);
  EXPECT_EQ(metrics.FindCounter("sim.0.ticks")->Value(), 20u);
}

// Every typed read equals the naive mean of the exported points in its window, on random
// windows over a run whose flushes differ.
TEST(SimulatorWindowTest, ReadsMatchNaiveMeanOfExportedPoints) {
  WindowFixture f(120.0);
  MetricsRegistry metrics = f.sim.ExportMetrics();
  auto expect_mean = [&](double read, const std::string& name, double from, double to) {
    double naive = NaiveMean(metrics, name, from, to);
    EXPECT_NEAR(read, naive, 1e-9 * (1.0 + std::abs(naive)))
        << name << " over [" << from << ", " << to << "]";
  };
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    double from = rng.Uniform(-5.0, 125.0);
    double to = from + rng.Uniform(-2.0, 40.0);
    expect_mean(f.sim.Throughput(from, to), "query.throughput", from, to);
    for (OperatorId op = 0; op < f.graph.num_operators(); ++op) {
      expect_mean(f.sim.OperatorEmitRate(op, from, to), OperatorMetric(op, "emit_rate"), from,
                  to);
      expect_mean(f.sim.OperatorBackpressure(op, from, to), OperatorMetric(op, "backpressure"),
                  from, to);
      expect_mean(f.sim.OperatorInputRate(op, from, to), OperatorMetric(op, "in_rate"), from,
                  to);
      expect_mean(f.sim.OperatorOutputRate(op, from, to), OperatorMetric(op, "out_rate"), from,
                  to);
      ResourceVector used = f.sim.OperatorUsage(op, from, to);
      expect_mean(used.cpu, OperatorMetric(op, "cpu_used"), from, to);
      expect_mean(used.io, OperatorMetric(op, "io_bps"), from, to);
      expect_mean(used.net, OperatorMetric(op, "net_bps"), from, to);
      double true_rate = 0.0;
      for (TaskId t : f.graph.TasksOf(op)) {
        true_rate += NaiveMean(metrics, TaskMetric(t, "true_rate"), from, to);
      }
      true_rate /= static_cast<double>(f.graph.TasksOf(op).size());
      EXPECT_NEAR(f.sim.OperatorTrueRatePerTask(op, from, to), true_rate,
                  1e-9 * (1.0 + true_rate));
    }
  }
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
  std::map<std::string, uint64_t> counters;  // all but sim.0.replayed_{ticks,flushes}
  std::vector<uint64_t> reads;               // controller-facing Operator* reads
  std::string events;
  uint64_t replayed_ticks = 0;
  uint64_t replayed_flushes = 0;
};

// How the script advances the simulator: RunFor(kTickS) per tick, or RunFor(1 s) per flush
// interval, which lets RunFor replay whole intervals. Every script change falls on a
// multiple of 10 ticks, so both apply the same inputs before the same ticks.
enum class Advance { kTick, kInterval };
constexpr int kTicksPerInterval = 10;

ScriptedRun RunScript(bool force_full_solve, Advance advance = Advance::kTick) {
  IdleWorkerFixture f;
  FluidSimulator sim(f.graph, f.cluster, f.plan,
                     /*metrics_interval_s=*/kTicksPerInterval * FluidSimulator::kTickS);
  EventLog::Global().Reset();
  EventLog::Global().Enable();
  ScriptedRun run;
  const int ticks_per_call = advance == Advance::kInterval ? kTicksPerInterval : 1;
  for (int tick = 0; tick < kScriptTicks; tick += ticks_per_call) {
    ApplyScript(sim, tick);
    if (force_full_solve) {
      ForceFullSolve(sim, tick);
    }
    sim.RunFor(ticks_per_call * FluidSimulator::kTickS);
    if ((tick + ticks_per_call) % 40 == 0) {
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
  MetricsRegistry metrics = sim.ExportMetrics();
  for (const std::string& name : metrics.Names()) {
    std::vector<uint64_t>& bits = run.series[name];
    for (const TimeSeries::Point& p : metrics.Find(name)->points()) {
      bits.push_back(Bits(p.time_s));
      bits.push_back(Bits(p.value));
    }
  }
  for (const std::string& name : metrics.CounterNames()) {
    uint64_t value = metrics.FindCounter(name)->Value();
    if (name == "sim.0.replayed_ticks") {
      run.replayed_ticks = value;
    } else if (name == "sim.0.replayed_flushes") {
      run.replayed_flushes = value;
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
  EXPECT_EQ(replayed.replayed_flushes, 0u) << "a one-tick RunFor replayed a whole interval";
}

// Replaying whole flush intervals must reproduce the same run bit for bit too, and replay
// exactly the ticks a per-tick run replays.
TEST(ReplayEquivalenceTest, WholeIntervalsMatchFullSolveOnEveryTick) {
  ScriptedRun intervals = RunScript(/*force_full_solve=*/false, Advance::kInterval);
  ScriptedRun ticks = RunScript(/*force_full_solve=*/false, Advance::kTick);
  ScriptedRun solved = RunScript(/*force_full_solve=*/true, Advance::kTick);
  EXPECT_GT(intervals.replayed_flushes, 0u);
  EXPECT_EQ(intervals.replayed_ticks, ticks.replayed_ticks);
  EXPECT_FALSE(intervals.series.empty());
  EXPECT_EQ(intervals.series, solved.series);
  EXPECT_EQ(intervals.counters, solved.counters);
  EXPECT_EQ(intervals.reads, solved.reads);
  EXPECT_FALSE(intervals.events.empty());
  EXPECT_EQ(intervals.events, solved.events);
}

// A driver re-applies the in-flight checkpoint I/O every control interval by clearing it
// and setting it again. An unchanged value must not end a replay.
TEST(FluidSimulatorTest, ReappliedCheckpointIoKeepsReplaying) {
  IdleWorkerFixture f;
  FluidSimulator sim(f.graph, f.cluster, f.plan);
  sim.SetAllSourceRates(8000.0);
  sim.SetWorkerCheckpointIoBps(0, 1.5e8);
  sim.RunFor(30);
  uint64_t before = sim.replayed_ticks();
  sim.Step();
  ASSERT_EQ(sim.replayed_ticks(), before + 1) << "the run did not reach a fixed point";
  for (int i = 0; i < 50; ++i) {
    sim.ClearCheckpointIo();
    sim.SetWorkerCheckpointIoBps(0, 1.5e8);
    sim.Step();
  }
  EXPECT_EQ(sim.replayed_ticks(), before + 51);
  sim.SetWorkerCheckpointIoBps(0, 1e8);  // a changed value ends it
  sim.Step();
  EXPECT_EQ(sim.replayed_ticks(), before + 51);
}

TEST(MetricsTest, MetricNameBuilders) {
  EXPECT_EQ(TaskMetric(3, "true_rate"), "task.3.true_rate");
  EXPECT_EQ(WorkerMetric(1, "cpu_util"), "worker.1.cpu_util");
  EXPECT_EQ(OperatorMetric(2, "emit_rate"), "op.2.emit_rate");
}

}  // namespace
}  // namespace capsys
