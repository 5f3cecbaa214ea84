// Parameterized property tests for the fluid simulator across all six evaluation queries:
// conservation, rate tracking below saturation, backpressure beyond saturation, utilization
// bounds, and placement-quality ordering.
#include <gtest/gtest.h>

#include <string>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/baselines/flink_strategies.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
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

INSTANTIATE_TEST_SUITE_P(AllQueries, QuerySweep,
                         ::testing::Values("q1", "q2", "q3", "q4", "q5", "q6"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace capsys
