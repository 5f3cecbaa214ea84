// Tests for the six evaluation queries.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/nexmark/queries.h"

namespace capsys {
namespace {

TEST(QueriesTest, AllQueriesValidate) {
  for (const QuerySpec& q : BuildAllQueries()) {
    EXPECT_EQ(q.graph.Validate(), "") << q.graph.name();
    EXPECT_FALSE(q.source_rates.empty()) << q.graph.name();
    EXPECT_GT(q.TotalTargetRate(), 0.0) << q.graph.name();
    // Every configured source rate refers to an actual source operator.
    auto sources = q.graph.SourceIds();
    for (const auto& [op, r] : q.source_rates) {
      EXPECT_NE(std::find(sources.begin(), sources.end(), op), sources.end());
    }
  }
}

TEST(QueriesTest, MotivationClusterParallelismsFit) {
  // Q1-Q3 defaults must fit the 4-worker x 4-slot motivation cluster.
  EXPECT_LE(BuildQ1Sliding().graph.total_parallelism(), 16);
  EXPECT_LE(BuildQ2Join().graph.total_parallelism(), 16);
  EXPECT_LE(BuildQ3Inf().graph.total_parallelism(), 16);
}

TEST(QueriesTest, StatefulOperatorsMarked) {
  QuerySpec q1 = BuildQ1Sliding();
  EXPECT_TRUE(q1.graph.op(2).profile.stateful);  // sliding window
  QuerySpec q2 = BuildQ2Join();
  EXPECT_TRUE(q2.graph.op(4).profile.stateful);  // window join
  QuerySpec q6 = BuildQ6Session();
  EXPECT_TRUE(q6.graph.op(2).profile.stateful);  // session window
}

TEST(QueriesTest, InferenceIsComputeAndGcHeavy) {
  QuerySpec q = BuildQ3Inf();
  const auto& inf = q.graph.op(2).profile;
  EXPECT_GT(inf.cpu_per_record, 1e-3);
  EXPECT_GT(inf.gc_spike_fraction, 0.0);
  // Decode moves large records (network-intensive under capped NICs).
  EXPECT_GT(q.graph.op(1).profile.out_bytes_per_record, 50000.0);
}

TEST(QueriesTest, ScaleRatesMultipliesAllSources) {
  QuerySpec q = BuildQ2Join();
  double before = q.TotalTargetRate();
  q.ScaleRates(2.5);
  EXPECT_NEAR(q.TotalTargetRate(), before * 2.5, 1e-6);
}

TEST(QueriesTest, BuildByNameAliases) {
  EXPECT_EQ(BuildQueryByName("q1").graph.name(), "q1-sliding");
  EXPECT_EQ(BuildQueryByName("q3-inf").graph.name(), "q3-inf");
  EXPECT_EQ(BuildQueryByName("q5").graph.name(), "q5-aggregate");
  EXPECT_EQ(FindQueryByName("q6-session")->graph.name(), "q6-session");
  EXPECT_FALSE(FindQueryByName("q9").has_value());
  EXPECT_FALSE(FindQueryByName("Q1").has_value());
}

TEST(QueriesTest, BuildByNameUnknownDies) {
  EXPECT_DEATH(BuildQueryByName("q99"), "unknown query");
}

TEST(QueriesTest, OperatorKindNamesCovered) {
  EXPECT_STREQ(OperatorKindName(OperatorKind::kSource), "source");
  EXPECT_STREQ(OperatorKindName(OperatorKind::kInference), "inference");
  EXPECT_STREQ(OperatorKindName(OperatorKind::kSessionWindow), "session_window");
  EXPECT_STREQ(PartitionSchemeName(PartitionScheme::kHash), "hash");
}

}  // namespace
}  // namespace capsys
