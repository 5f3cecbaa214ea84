// End-to-end integration sweep: every evaluation query under every placement policy runs
// the full pipeline (profiling -> DS2 sizing -> placement -> simulation) and CAPS never
// performs worse than the baselines (parameterized, the repo-level version of Fig. 7).
// Also the one instance of the repository whose final search reaches its node budget.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "src/caps/greedy.h"
#include "src/caps/plan.h"
#include "src/controller/deployment.h"
#include "src/controller/profiler.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"

namespace capsys {
namespace {

struct Outcome {
  double throughput = 0.0;
  double backpressure = 0.0;
};

Outcome RunOnce(const QuerySpec& q, const Cluster& cluster, PlacementPolicy policy,
                uint64_t seed) {
  DeployOptions options;
  options.policy = policy;
  options.use_ds2_sizing = true;
  options.seed = seed;
  CapsysController controller(cluster, options);
  Deployment d = controller.Deploy(q);
  FluidSimulator sim(d.physical, cluster, d.placement);
  for (const auto& [op, r] : d.source_rates) {
    sim.SetSourceRate(op, r);
  }
  QuerySummary s = sim.RunMeasured(45, 90);
  return Outcome{s.throughput, s.backpressure};
}

class QueryPolicySweep : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(QueryPolicySweep, CapsAtLeastMatchesBaseline) {
  auto [query_name, policy_int] = GetParam();
  PlacementPolicy baseline = static_cast<PlacementPolicy>(policy_int);
  Cluster cluster(4, WorkerSpec::M5d2xlarge(8));
  QuerySpec q = BuildQueryByName(query_name);
  q.ScaleRates(2.0);

  Outcome caps = RunOnce(q, cluster, PlacementPolicy::kCaps, 1);
  Outcome base = RunOnce(q, cluster, baseline, 1);
  EXPECT_GE(caps.throughput + 1.0, base.throughput)
      << query_name << " vs " << PolicyName(baseline);
  EXPECT_LE(caps.backpressure, base.backpressure + 1e-6);
}

TEST_P(QueryPolicySweep, CapsReachesTarget) {
  auto [query_name, policy_int] = GetParam();
  (void)policy_int;
  Cluster cluster(4, WorkerSpec::M5d2xlarge(8));
  QuerySpec q = BuildQueryByName(query_name);
  q.ScaleRates(2.0);
  Outcome caps = RunOnce(q, cluster, PlacementPolicy::kCaps, 1);
  EXPECT_GE(caps.throughput, 0.95 * q.TotalTargetRate()) << query_name;
}

INSTANTIATE_TEST_SUITE_P(
    AllQueriesAllBaselines, QueryPolicySweep,
    ::testing::Combine(::testing::Values("q1", "q2", "q3", "q4", "q5", "q6"),
                       ::testing::Values(static_cast<int>(PlacementPolicy::kFlinkDefault),
                                         static_cast<int>(PlacementPolicy::kFlinkEvenly))),
    [](const ::testing::TestParamInfo<QueryPolicySweep::ParamType>& info) {
      return std::get<0>(info.param) + "_vs_" +
             (std::get<1>(info.param) == static_cast<int>(PlacementPolicy::kFlinkDefault)
                  ? "default"
                  : "evenly");
    });

// Baseline policies remain stable across seeds in aggregate: their plans are random, but
// every plan they produce must still be valid and executable.
class BaselineSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(BaselineSeedSweep, BaselinePlansAlwaysExecutable) {
  int seed = GetParam();
  Cluster cluster(4, WorkerSpec::M5d2xlarge(8));
  QuerySpec q = BuildQ5Aggregate();
  q.ScaleRates(2.0);
  Outcome o = RunOnce(q, cluster, PlacementPolicy::kFlinkDefault,
                      static_cast<uint64_t>(seed));
  EXPECT_GT(o.throughput, 0.0);
  EXPECT_LE(o.backpressure, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineSeedSweep, ::testing::Range(1, 9));

// The merged Q1 + Q4 + Q6 tenants of examples/multitenant_cluster.cpp, DS2-sized to 23
// tasks on 8 m5d.2xlarge workers: a branch and bound that does not end within
// kFinalSearchNodeBudget. On one thread it stops one node past the budget on every run and
// returns the best candidate found by then, which the greedy incumbent bounds. (It walks
// 2 M nodes per plan, so it stays out of the sanitizer-labelled tests.)
TEST(FinalSearchBudgetTest, MultitenantPlanStopsAtTheNodeBudget) {
  Cluster cluster(8, WorkerSpec::M5d2xlarge(8));
  LogicalGraph merged("tenants");
  std::map<OperatorId, double> source_rates;
  for (const char* name : {"q1", "q4", "q6"}) {
    QuerySpec q = BuildQueryByName(name);
    q.ScaleRates(2.0);
    OperatorId offset = merged.Merge(q.graph);
    for (const auto& [op, rate] : q.source_rates) {
      source_rates[op + offset] = rate;
    }
  }
  DeployOptions sizing;
  sizing.policy = PlacementPolicy::kFlinkDefault;  // only the DS2-sized graph is needed
  sizing.use_ds2_sizing = true;
  Deployment d = CapsysController(cluster, sizing).DeployGraph(merged, source_rates);
  ASSERT_EQ(d.physical.num_tasks(), 23);
  CostModel model(d.physical, cluster,
                  DemandsFromMeasuredCosts(d.physical, d.costs,
                                           PropagateRates(d.graph, d.source_rates)));
  PlannedPlacement first = PlanPlacement(model, std::nullopt, AutoTuneOptions{}, 1, 48);
  EXPECT_TRUE(first.search.budget_hit);
  EXPECT_FALSE(first.search.timed_out);
  EXPECT_EQ(first.search.nodes, kFinalSearchNodeBudget + 1);
  EXPECT_EQ(first.placement.Validate(d.physical, cluster), "");
  EXPECT_LE(MaxUtilization(model, first.placement),
            MaxUtilization(model, GreedyBalancedPlacement(model)));
  PlannedPlacement again = PlanPlacement(model, std::nullopt, AutoTuneOptions{}, 1, 48);
  EXPECT_EQ(again.alpha, first.alpha);
  EXPECT_TRUE(again.placement == first.placement);
  EXPECT_EQ(again.cost, first.cost);
  EXPECT_EQ(again.search.nodes, first.search.nodes);
}

}  // namespace
}  // namespace capsys
