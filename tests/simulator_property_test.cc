// Parameterized property tests for the fluid simulator across all six evaluation queries:
// conservation, rate tracking below saturation, backpressure beyond saturation, utilization
// bounds, placement-quality ordering, and bit-exact replay of whole flush intervals.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/baselines/flink_strategies.h"
#include "src/common/rng.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

struct QueryFixture {
  QuerySpec q;
  Cluster cluster{4, WorkerSpec::M5d2xlarge(8)};
  PhysicalGraph graph;
  Placement balanced;

  explicit QueryFixture(const std::string& name) : q(BuildQueryByName(name)) {
    q.ScaleRates(2.0);
    graph = PhysicalGraph::Expand(q.graph);
    CostModel model(graph, cluster, TaskDemands(graph, PropagateRates(q.graph, q.source_rates)));
    balanced = GreedyBalancedPlacement(model);
  }
};

class QuerySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(QuerySweep, HalfRateRunsWithoutBackpressure) {
  QueryFixture s(GetParam());
  FluidSimulator sim(s.graph, s.cluster, s.balanced);
  double total = 0.0;
  for (const auto& [op, r] : s.q.source_rates) {
    sim.SetSourceRate(op, r * 0.5);
    total += r * 0.5;
  }
  QuerySummary summary = sim.RunMeasured(40, 80);
  EXPECT_NEAR(summary.throughput, total, total * 0.02) << GetParam();
  EXPECT_LT(summary.backpressure, 0.01) << GetParam();
}

TEST_P(QuerySweep, TripleRateSaturates) {
  QueryFixture s(GetParam());
  FluidSimulator sim(s.graph, s.cluster, s.balanced);
  double total = 0.0;
  for (const auto& [op, r] : s.q.source_rates) {
    sim.SetSourceRate(op, r * 3.0);
    total += r * 3.0;
  }
  QuerySummary summary = sim.RunMeasured(40, 80);
  EXPECT_LT(summary.throughput, total * 0.999) << GetParam();
}

TEST_P(QuerySweep, SinkRateMatchesSelectivityProduct) {
  QueryFixture s(GetParam());
  FluidSimulator sim(s.graph, s.cluster, s.balanced);
  for (const auto& [op, r] : s.q.source_rates) {
    sim.SetSourceRate(op, r * 0.5);
  }
  sim.RunFor(120);
  double t = sim.time_s();
  // Expected sink arrival = sum over sinks of their propagated input rates.
  std::map<OperatorId, double> half_rates;
  for (const auto& [op, r] : s.q.source_rates) {
    half_rates[op] = r * 0.5;
  }
  auto rates = PropagateRates(s.q.graph, half_rates);
  double expected = 0.0;
  for (OperatorId sink : s.q.graph.SinkIds()) {
    expected += rates[static_cast<size_t>(sink)].input_rate;
  }
  double measured = 0.0;
  for (OperatorId sink : s.q.graph.SinkIds()) {
    measured += sim.OperatorInputRate(sink, t - 40, t);
  }
  EXPECT_NEAR(measured, expected, expected * 0.03 + 1.0) << GetParam();
}

TEST_P(QuerySweep, UtilizationAlwaysBounded) {
  QueryFixture s(GetParam());
  FluidSimulator sim(s.graph, s.cluster, s.balanced);
  for (const auto& [op, r] : s.q.source_rates) {
    sim.SetSourceRate(op, r * 3.0);  // overloaded on purpose
  }
  sim.RunFor(60);
  MetricsRegistry metrics = sim.ExportMetrics();
  for (WorkerId w = 0; w < s.cluster.num_workers(); ++w) {
    for (const char* metric : {"cpu_util", "io_util", "net_util"}) {
      const TimeSeries* ts = metrics.Find(WorkerMetric(w, metric));
      ASSERT_NE(ts, nullptr) << GetParam() << " " << metric;
      for (const TimeSeries::Point& p : ts->points()) {
        EXPECT_GE(p.value, -1e-9) << GetParam() << " " << metric;
        EXPECT_LE(p.value, 1.0 + 1e-9) << GetParam() << " " << metric;
      }
    }
  }
}

TEST_P(QuerySweep, BalancedPlanBeatsWorstDefaultSeed) {
  QueryFixture s(GetParam());
  // Find the worst of a few default-policy plans and compare against balanced.
  double worst = 1e300;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    Placement plan = FlinkDefaultPlacement(s.graph, s.cluster, rng);
    FluidSimulator sim(s.graph, s.cluster, plan);
    for (const auto& [op, r] : s.q.source_rates) {
      sim.SetSourceRate(op, r);
    }
    worst = std::min(worst, sim.RunMeasured(40, 80).throughput);
  }
  FluidSimulator sim(s.graph, s.cluster, s.balanced);
  for (const auto& [op, r] : s.q.source_rates) {
    sim.SetSourceRate(op, r);
  }
  double balanced = sim.RunMeasured(40, 80).throughput;
  EXPECT_GE(balanced + 1.0, worst) << GetParam();
}

// --- Whole-interval replay ----------------------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

struct ChunkedRun {
  std::map<std::string, std::vector<uint64_t>> series;  // time and value bits, interleaved
  std::map<std::string, uint64_t> counters;             // all but sim.0.replayed_flushes
  std::vector<uint64_t> summaries;  // RunMeasured results, final clock and queues, reads
  std::string events;
  uint64_t replayed_flushes = 0;
  std::vector<double> flush_gaps_s;  // between consecutive flush stamps
};

// A seeded run of `run_s` simulated seconds in chunks of random length, most of them not
// multiples of the flush interval. Before a chunk it may fail, restore or degrade a worker,
// charge checkpoint I/O or change the source rates; now and then a chunk is a RunMeasured,
// whose closing flush is usually partial. With `per_tick` every chunk is stepped with
// Step() and each RunMeasured is rebuilt from Step() and a RunMeasured(0, 0) flush, so no
// interval is ever replayed whole.
ChunkedRun RunChunks(const QueryFixture& s, double interval_s, uint64_t seed, bool per_tick) {
  constexpr double kRunS = 1500.0;
  constexpr double kChunksS[] = {0.1, 0.3, 0.7, 1.0, 2.3, 2.5, 4.0, 7.5, 20.0};
  constexpr double kRateScales[] = {0.5, 1.0, 3.0};
  FluidSimulator sim(s.graph, s.cluster, s.balanced, interval_s);
  auto set_rates = [&](double scale) {
    for (const auto& [op, r] : s.q.source_rates) {
      sim.SetSourceRate(op, r * scale);
    }
  };
  auto advance = [&](double seconds) {
    if (!per_tick) {
      sim.RunFor(seconds);
      return;
    }
    for (long i = std::lround(seconds / FluidSimulator::kTickS); i > 0; --i) {
      sim.Step();
    }
  };
  auto pick = [](Rng& rng, const auto& values) {
    return values[rng.NextBounded(std::size(values))];
  };
  EventLog::Global().Reset();
  EventLog::Global().Enable();
  ChunkedRun run;
  Rng rng(seed);
  const int num_workers = s.cluster.num_workers();
  set_rates(1.0);
  while (sim.time_s() < kRunS) {
    if (rng.Bernoulli(0.1)) {
      WorkerId w = static_cast<WorkerId>(rng.NextBounded(static_cast<uint64_t>(num_workers)));
      switch (rng.NextBounded(4)) {
        case 0:
          sim.IsWorkerFailed(w) ? sim.RestoreWorker(w) : sim.FailWorker(w);
          break;
        case 1:
          sim.DegradeWorker(w, rng.Bernoulli(0.5) ? 0.5 : 1.0);
          break;
        case 2:
          sim.SetWorkerCheckpointIoBps(w, rng.Bernoulli(0.5) ? 1e8 : 0.0);
          break;
        default:
          set_rates(pick(rng, kRateScales));
          break;
      }
    }
    if (rng.Bernoulli(0.05)) {
      double warmup_s = pick(rng, kChunksS);
      double measure_s = pick(rng, kChunksS);
      QuerySummary summary;
      if (per_tick) {
        advance(warmup_s);
        double from = sim.time_s();
        advance(measure_s);
        sim.RunMeasured(0, 0);
        summary = sim.Summarize(from, sim.time_s());
      } else {
        summary = sim.RunMeasured(warmup_s, measure_s);
      }
      for (double v : {summary.throughput, summary.backpressure, summary.latency_s,
                       summary.sink_rate, summary.max_worker_utilization.cpu,
                       summary.max_worker_utilization.io, summary.max_worker_utilization.net}) {
        run.summaries.push_back(Bits(v));
      }
    } else {
      advance(pick(rng, kChunksS));
    }
  }
  run.events = EventLog::Global().ToJsonLines();
  EventLog::Global().Disable();
  EventLog::Global().Reset();
  run.summaries.push_back(Bits(sim.time_s()));
  for (TaskId t = 0; t < s.graph.num_tasks(); ++t) {
    run.summaries.push_back(Bits(sim.QueueLength(t)));
  }
  for (int i = 0; i < 100; ++i) {  // window reads answer from the running sums
    double from = rng.Uniform(0.0, kRunS);
    double to = from + rng.Uniform(0.0, 60.0);
    run.summaries.push_back(Bits(sim.Throughput(from, to)));
    for (OperatorId op = 0; op < s.graph.num_operators(); ++op) {
      run.summaries.push_back(Bits(sim.OperatorInputRate(op, from, to)));
      run.summaries.push_back(Bits(sim.OperatorTrueRatePerTask(op, from, to)));
    }
  }
  MetricsRegistry metrics = sim.ExportMetrics();
  for (const std::string& name : metrics.Names()) {
    std::vector<uint64_t>& bits = run.series[name];
    for (const TimeSeries::Point& p : metrics.Find(name)->points()) {
      bits.push_back(Bits(p.time_s));
      bits.push_back(Bits(p.value));
    }
  }
  const auto& stamps = metrics.Find("query.throughput")->points();
  for (size_t i = 1; i < stamps.size(); ++i) {
    run.flush_gaps_s.push_back(stamps[i].time_s - stamps[i - 1].time_s);
  }
  for (const std::string& name : metrics.CounterNames()) {
    uint64_t value = metrics.FindCounter(name)->Value();
    if (name == "sim.0.replayed_flushes") {
      run.replayed_flushes = value;
    } else {
      run.counters[name] = value;  // sim.0.replayed_ticks must match too
    }
  }
  return run;
}

// RunFor in random chunks, replaying whole intervals where it can, must match stepping
// every tick bit for bit: a stale copied row would show in a series, a read or a counter.
// RunMeasured leaves partial rows that must not be copied, and at the 2.5 s interval the
// 1500 s runs pass clocks (about 1000 s on) where 25 additions of 0.1 s sometimes fall
// short of the flush test, so that interval takes a 26th tick and a copied row's tick
// count is exercised.
TEST_P(QuerySweep, ChunkedRunForMatchesPerTickSteps) {
  QueryFixture s(GetParam());
  uint64_t seed = 7;
  bool extra_tick = false;
  for (double interval_s : {0.3, 1.0, 2.5}) {
    ChunkedRun chunked = RunChunks(s, interval_s, seed, /*per_tick=*/false);
    ChunkedRun stepped = RunChunks(s, interval_s, seed, /*per_tick=*/true);
    ++seed;
    SCOPED_TRACE(GetParam() + " interval " + std::to_string(interval_s));
    EXPECT_GT(chunked.replayed_flushes, 0u);
    EXPECT_EQ(stepped.replayed_flushes, 0u);
    EXPECT_FALSE(chunked.series.empty());
    EXPECT_EQ(chunked.series, stepped.series);
    EXPECT_EQ(chunked.counters, stepped.counters);
    EXPECT_FALSE(chunked.summaries.empty());
    EXPECT_EQ(chunked.summaries, stepped.summaries);
    EXPECT_EQ(chunked.events, stepped.events);
    double shortest = *std::min_element(chunked.flush_gaps_s.begin(), chunked.flush_gaps_s.end());
    double longest = *std::max_element(chunked.flush_gaps_s.begin(), chunked.flush_gaps_s.end());
    EXPECT_LT(shortest, interval_s - 0.05) << "no RunMeasured flushed a partial interval";
    extra_tick = extra_tick || longest > interval_s + 0.05;
  }
  EXPECT_TRUE(extra_tick) << "no interval needed an extra tick";
}

INSTANTIATE_TEST_SUITE_P(AllQueries, QuerySweep,
                         ::testing::Values("q1", "q2", "q3", "q4", "q5", "q6"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace capsys
