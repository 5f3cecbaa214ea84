// End-to-end integration sweep: every evaluation query under every placement policy runs
// the full pipeline (profiling -> DS2 sizing -> placement -> simulation) and CAPS never
// performs worse than the baselines (parameterized, the repo-level version of Fig. 7).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "src/controller/deployment.h"
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

}  // namespace
}  // namespace capsys
