// Tests for src/common: RNG determinism and distribution properties, percentile statistics,
// string helpers, the thread pool, and ResourceVector arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/str.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"

namespace capsys {
namespace {

// --- Rng ------------------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  Distribution d;
  for (int i = 0; i < 20000; ++i) {
    d.Add(rng.Normal(5.0, 2.0));
  }
  double mean = d.Mean();
  double var = 0.0;
  for (double x : d.samples()) {
    var += (x - mean) * (x - mean);
  }
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var / (d.Count() - 1)), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(17);
  Distribution d;
  for (int i = 0; i < 20000; ++i) {
    d.Add(rng.Exponential(4.0));
  }
  EXPECT_NEAR(d.Mean(), 0.25, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) {
    v[static_cast<size_t>(i)] = i;
  }
  auto original = v;
  rng.Shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(23);
  Rng b = a.Split();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// --- Distribution / BoxSummary ---------------------------------------------------------------

TEST(DistributionTest, PercentilesOnKnownData) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) {
    d.Add(i);
  }
  EXPECT_NEAR(d.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(d.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(d.Median(), 50.5, 1e-9);
  EXPECT_NEAR(d.Percentile(25), 25.75, 1e-9);
  EXPECT_NEAR(d.Mean(), 50.5, 1e-9);
}

TEST(DistributionTest, PercentileMonotoneInQ) {
  Rng rng(31);
  Distribution d;
  for (int i = 0; i < 300; ++i) {
    d.Add(rng.Uniform(-10, 10));
  }
  double prev = d.Percentile(0);
  for (double q = 5; q <= 100; q += 5) {
    double cur = d.Percentile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(DistributionTest, EmptyReturnsZero) {
  Distribution d;
  EXPECT_EQ(d.Percentile(50), 0.0);
  EXPECT_EQ(d.Mean(), 0.0);
}

TEST(BoxSummaryTest, OrderedFields) {
  std::vector<double> v = {5, 1, 9, 3, 7, 2, 8};
  BoxSummary s = Summarize(v);
  EXPECT_LE(s.min, s.p25);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.max);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 9.0);
  EXPECT_EQ(s.median, 5.0);
}

// --- Str -------------------------------------------------------------------------------------

TEST(StrTest, SprintfFormats) {
  EXPECT_EQ(Sprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(Sprintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(Sprintf("%s", ""), "");
}

TEST(StrTest, SprintfLongString) {
  std::string big(5000, 'a');
  EXPECT_EQ(Sprintf("%s", big.c_str()).size(), 5000u);
}

TEST(StrTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({"x"}, ","), "x");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrTest, HumanizeTrimsZeros) {
  EXPECT_EQ(Humanize(1.5, 3), "1.5");
  EXPECT_EQ(Humanize(2.0, 3), "2.0");
}

// --- ThreadPool ------------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, TasksCanSpawnTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  // Workers may still be starting up; they must settle into the idle state shortly.
  bool idle = false;
  for (int i = 0; i < 200 && !idle; ++i) {
    idle = pool.HasIdleThread();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(idle);
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(count.load(), 100);
}

// --- ResourceVector --------------------------------------------------------------------------

TEST(ResourceVectorTest, Arithmetic) {
  ResourceVector a{1, 2, 3};
  ResourceVector b{0.5, 0.5, 0.5};
  ResourceVector sum = a + b;
  EXPECT_EQ(sum.cpu, 1.5);
  EXPECT_EQ(sum.io, 2.5);
  EXPECT_EQ(sum.net, 3.5);
  ResourceVector scaled = a * 2.0;
  EXPECT_EQ(scaled.cpu, 2.0);
  EXPECT_EQ(scaled.net, 6.0);
  ResourceVector diff = a - b;
  EXPECT_EQ(diff.cpu, 0.5);
}

TEST(ResourceVectorTest, IndexingMatchesFields) {
  ResourceVector v{1, 2, 3};
  EXPECT_EQ(v[Resource::kCpu], 1.0);
  EXPECT_EQ(v[Resource::kIo], 2.0);
  EXPECT_EQ(v[Resource::kNet], 3.0);
  v[Resource::kIo] = 9.0;
  EXPECT_EQ(v.io, 9.0);
}

TEST(ResourceVectorTest, DominanceSemantics) {
  ResourceVector a{1, 1, 1};
  ResourceVector b{2, 2, 2};
  ResourceVector c{0.5, 3, 1};
  EXPECT_TRUE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
  EXPECT_FALSE(a.Dominates(a));  // equal vectors do not dominate
  EXPECT_FALSE(a.Dominates(c));
  EXPECT_FALSE(c.Dominates(a));
}

TEST(ResourceVectorTest, MaxAndSum) {
  ResourceVector v{0.2, 0.9, 0.4};
  EXPECT_EQ(v.Max(), 0.9);
  EXPECT_NEAR(v.Sum(), 1.5, 1e-12);
}

TEST(ResourceVectorTest, ResourceNames) {
  EXPECT_STREQ(ResourceName(Resource::kCpu), "cpu");
  EXPECT_STREQ(ResourceName(Resource::kIo), "io");
  EXPECT_STREQ(ResourceName(Resource::kNet), "net");
}

}  // namespace
}  // namespace capsys
