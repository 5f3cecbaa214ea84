// Tests for the metrics layer: the monotonic-append invariant of TimeSeries, the registry,
// counters, fixed-bucket histograms, and the JSON exporter built on top of them. The window
// means the simulator serves are tested in simulator_test.
#include "src/metrics/metrics.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/exporters.h"

namespace capsys {
namespace {

TEST(TimeSeriesDeathTest, RejectsNonMonotonicAppend) {
  TimeSeries ts;
  ts.Record(10.0, 1.0);
  ts.Record(10.0, 2.0);  // equal time is allowed
  EXPECT_DEATH(ts.Record(9.0, 3.0), "");
}

TEST(MetricsRegistry, RecordCreatesSeriesInTimeOrder) {
  MetricsRegistry r;
  EXPECT_EQ(r.Find("task.0.rate"), nullptr);
  r.Record("task.0.rate", 1.0, 5.0);
  r.Record("task.0.rate", 2.0, 7.0);
  const TimeSeries* ts = r.Find("task.0.rate");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->points().size(), 2u);
  EXPECT_EQ(ts->points()[0].time_s, 1.0);
  EXPECT_EQ(ts->points()[1].value, 7.0);
  EXPECT_EQ(r.Names(), std::vector<std::string>{"task.0.rate"});
}

TEST(Counter, AccumulatesAndRegisters) {
  MetricsRegistry r;
  EXPECT_EQ(r.FindCounter("chaos.0.ticks"), nullptr);
  r.GetCounter("chaos.0.ticks").Add();
  r.GetCounter("chaos.0.ticks").Add(41);
  ASSERT_NE(r.FindCounter("chaos.0.ticks"), nullptr);
  EXPECT_EQ(r.FindCounter("chaos.0.ticks")->Value(), 42u);
  EXPECT_EQ(r.CounterNames(), std::vector<std::string>{"chaos.0.ticks"});
  // Counters and series live in separate namespaces.
  r.Record("chaos.0.ticks", 1.0, 7.0);
  EXPECT_EQ(r.FindCounter("chaos.0.ticks")->Value(), 42u);
}

TEST(Histogram, BucketsAndPercentiles) {
  Histogram h({1.0, 10.0, 100.0});
  for (int i = 1; i <= 100; ++i) {
    h.Observe(static_cast<double>(i));  // 1..100
  }
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  ASSERT_EQ(h.bounds().size(), 3u);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(h.bucket_counts()[0], 1u);      // <= 1
  EXPECT_EQ(h.bucket_counts()[1], 9u);      // (1, 10]
  EXPECT_EQ(h.bucket_counts()[2], 90u);     // (10, 100]
  EXPECT_EQ(h.bucket_counts()[3], 0u);      // > 100
  h.Observe(1e6);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  // Exact percentiles come from the retained sample distribution.
  EXPECT_NEAR(h.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(h.Percentile(95), 95.5, 1.5);
}

TEST(Histogram, RegistryKeepsCreationBounds) {
  MetricsRegistry r;
  Histogram& h = r.GetHistogram("chaos.0.replan_seconds", {0.5, 1.5});
  h.Observe(1.0);
  // Later Gets ignore the bounds argument and return the same instance.
  EXPECT_EQ(&r.GetHistogram("chaos.0.replan_seconds", {9.0}), &h);
  ASSERT_NE(r.FindHistogram("chaos.0.replan_seconds"), nullptr);
  EXPECT_EQ(r.FindHistogram("chaos.0.replan_seconds")->Count(), 1u);
  // Default buckets apply when no bounds are given.
  EXPECT_EQ(r.GetHistogram("other").bounds(), Histogram::DefaultBuckets());
}

// --- Exporters ------------------------------------------------------------------------------

TEST(Exporters, MetricsJsonContainsEverything) {
  MetricsRegistry r;
  r.Record("op.1.emit_rate", 1.0, 10.0);
  r.Record("op.1.emit_rate", 2.0, 20.0);
  r.GetCounter("sim.0.flushes").Add(3);
  r.GetHistogram("query.0.latency", {0.5}).Observe(0.25);

  std::string json = MetricsJson(r);
  EXPECT_NE(json.find("\"op.1.emit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.0.flushes\""), std::string::npos);
  EXPECT_NE(json.find("\"query.0.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // All series points are present, not just the last value.
  EXPECT_NE(json.find("1,"), std::string::npos);
}

}  // namespace
}  // namespace capsys
