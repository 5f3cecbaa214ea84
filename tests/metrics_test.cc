// Tests for the metrics layer: TimeSeries window math (binary-search MeanOver over the
// prefix sum), the monotonic-append invariant, counters, fixed-bucket histograms, and the
// JSON exporter built on top of them.
#include "src/metrics/metrics.h"

#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/exporters.h"

namespace capsys {
namespace {

TEST(TimeSeries, EmptySeries) {
  TimeSeries ts;
  EXPECT_TRUE(ts.Empty());
  EXPECT_EQ(ts.Count(), 0u);
  EXPECT_DOUBLE_EQ(ts.MeanOver(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.Mean(), 0.0);
}

TEST(TimeSeries, SinglePoint) {
  TimeSeries ts;
  ts.Record(5.0, 42.0);
  EXPECT_DOUBLE_EQ(ts.Last(), 42.0);
  EXPECT_DOUBLE_EQ(ts.LastTime(), 5.0);
  // Window containing the point.
  EXPECT_DOUBLE_EQ(ts.MeanOver(0.0, 10.0), 42.0);
  // Inclusive bounds on both ends.
  EXPECT_DOUBLE_EQ(ts.MeanOver(5.0, 5.0), 42.0);
  // Windows strictly before / strictly after the point.
  EXPECT_DOUBLE_EQ(ts.MeanOver(0.0, 4.9), 0.0);
  EXPECT_DOUBLE_EQ(ts.MeanOver(5.1, 10.0), 0.0);
}

TEST(TimeSeries, WindowedMeans) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.Record(static_cast<double>(i), static_cast<double>(i * 10));  // v(t) = 10 t
  }
  EXPECT_DOUBLE_EQ(ts.Mean(), 45.0);
  EXPECT_DOUBLE_EQ(ts.MeanOver(0.0, 9.0), 45.0);
  EXPECT_DOUBLE_EQ(ts.MeanOver(2.0, 4.0), 30.0);   // samples at 2, 3, 4
  EXPECT_DOUBLE_EQ(ts.MeanOver(2.5, 4.5), 35.0);   // samples at 3, 4
  EXPECT_DOUBLE_EQ(ts.MeanOver(9.0, 100.0), 90.0); // last sample only
  EXPECT_DOUBLE_EQ(ts.MeanSince(8.0), 85.0);       // samples at 8, 9
  // Out-of-range and inverted windows are empty.
  EXPECT_DOUBLE_EQ(ts.MeanOver(100.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.MeanOver(-50.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.MeanOver(4.0, 2.0), 0.0);
}

TEST(TimeSeries, MatchesNaiveMeanOnDenseSeries) {
  TimeSeries ts;
  std::vector<TimeSeries::Point> pts;
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 0.1 + 0.01 * (i % 7);  // uneven but increasing spacing
    double v = std::sin(i * 0.3) * 100.0;
    ts.Record(t, v);
    pts.push_back({t, v});
  }
  auto naive = [&](double from, double to) {
    double sum = 0.0;
    int n = 0;
    for (const auto& p : pts) {
      if (p.time_s >= from && p.time_s <= to) {
        sum += p.value;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  for (double from = -1.0; from < t + 2.0; from += 3.7) {
    for (double span = 0.05; span < 20.0; span *= 3.0) {
      EXPECT_NEAR(ts.MeanOver(from, from + span), naive(from, from + span), 1e-9)
          << "window [" << from << ", " << from + span << "]";
    }
  }
}

TEST(TimeSeriesDeathTest, RejectsNonMonotonicAppend) {
  TimeSeries ts;
  ts.Record(10.0, 1.0);
  ts.Record(10.0, 2.0);  // equal time is allowed
  EXPECT_DEATH(ts.Record(9.0, 3.0), "");
}

TEST(MetricsRegistry, FindVersusSeries) {
  MetricsRegistry r;
  EXPECT_EQ(r.Find("task.0.rate"), nullptr);
  r.Series("task.0.rate");  // creates empty
  ASSERT_NE(r.Find("task.0.rate"), nullptr);
  EXPECT_TRUE(r.Find("task.0.rate")->Empty());
  r.Record("task.0.rate", 1.0, 5.0);
  EXPECT_EQ(r.Find("task.0.rate")->Count(), 1u);
  EXPECT_EQ(r.Names(), std::vector<std::string>{"task.0.rate"});
}

TEST(MetricsRegistry, LastOrAndMeanSinceOr) {
  MetricsRegistry r;
  EXPECT_DOUBLE_EQ(r.LastOr("missing", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(r.MeanSinceOr("missing", 0.0, -2.0), -2.0);
  r.Record("query.0.throughput", 1.0, 100.0);
  r.Record("query.0.throughput", 2.0, 200.0);
  EXPECT_DOUBLE_EQ(r.LastOr("query.0.throughput", -1.0), 200.0);
  EXPECT_DOUBLE_EQ(r.MeanSinceOr("query.0.throughput", 1.5, -1.0), 200.0);
  EXPECT_DOUBLE_EQ(r.MeanSinceOr("query.0.throughput", 0.0, -1.0), 150.0);
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

TEST(MetricsRegistry, ClearDropsAllInstrumentKinds) {
  MetricsRegistry r;
  r.Record("a.0.x", 0.0, 1.0);
  r.GetCounter("b.0.y").Add();
  r.GetHistogram("c.0.z").Observe(1.0);
  r.Clear();
  EXPECT_TRUE(r.Names().empty());
  EXPECT_TRUE(r.CounterNames().empty());
  EXPECT_TRUE(r.HistogramNames().empty());
}

}  // namespace
}  // namespace capsys
