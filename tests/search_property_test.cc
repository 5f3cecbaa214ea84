// Randomized property tests for the CAPS search: enumeration completeness/uniqueness vs
// brute force, pruning soundness AND completeness, threshold monotonicity, optimality of
// the best plan and of the incumbent-bound pick, and lookahead admissibility and visit
// order, across randomly generated instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/caps/search.h"
#include "src/common/rng.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"

namespace capsys {
namespace {

struct Instance {
  LogicalGraph graph{"random"};
  Cluster cluster;
  PhysicalGraph physical;
  std::vector<ResourceVector> demands;
};

// Generates a random valid instance whose brute-force space (W^T) stays tractable. A
// heterogeneous instance gives each worker the capacities of a random instance type.
Instance RandomInstance(uint64_t seed, bool heterogeneous = false) {
  Rng rng(seed);
  Instance inst;
  int num_ops = static_cast<int>(rng.UniformInt(2, 4));
  for (int i = 0; i < num_ops; ++i) {
    OperatorProfile p;
    p.cpu_per_record = rng.Uniform(1e-6, 2e-4);
    p.io_bytes_per_record = rng.Bernoulli(0.5) ? rng.Uniform(100, 20000) : 0.0;
    p.out_bytes_per_record = rng.Uniform(50, 5000);
    p.selectivity = rng.Uniform(0.1, 1.5);
    p.stateful = p.io_bytes_per_record > 0;
    inst.graph.AddOperator("op" + std::to_string(i),
                           i == 0 ? OperatorKind::kSource : OperatorKind::kMap, p,
                           static_cast<int>(rng.UniformInt(1, 3)));
  }
  for (int i = 0; i < num_ops; ++i) {
    for (int j = i + 1; j < num_ops; ++j) {
      if (rng.Bernoulli(0.5)) {
        inst.graph.AddEdge(i, j, PartitionScheme::kHash);
      }
    }
  }
  int tasks = inst.graph.total_parallelism();
  int workers = static_cast<int>(rng.UniformInt(2, 3));
  int slots = (tasks + workers - 1) / workers + static_cast<int>(rng.UniformInt(0, 1));
  WorkerSpec spec = WorkerSpec::R5dXlarge(slots);
  inst.cluster = Cluster(workers, spec);
  inst.physical = PhysicalGraph::Expand(inst.graph);
  inst.demands = TaskDemands(inst.physical, PropagateRates(inst.graph, rng.Uniform(100, 5000)));
  if (heterogeneous) {
    std::vector<WorkerSpec> specs;
    for (int w = 0; w < workers; ++w) {
      switch (rng.UniformInt(0, 2)) {
        case 0:
          specs.push_back(WorkerSpec::R5dXlarge(slots));
          break;
        case 1:
          specs.push_back(WorkerSpec::M5d2xlarge(slots));
          break;
        default:
          specs.push_back(WorkerSpec::C5d4xlarge(slots));
          break;
      }
    }
    inst.cluster = Cluster(std::move(specs));
  }
  return inst;
}

// All distinct plans by brute force, keyed canonically, with their cost vectors.
std::map<std::string, ResourceVector> BruteForcePlans(const Instance& inst,
                                                      const CostModel& model) {
  std::map<std::string, ResourceVector> plans;
  int n = inst.physical.num_tasks();
  int w = inst.cluster.num_workers();
  std::vector<WorkerId> assign(static_cast<size_t>(n), 0);
  while (true) {
    Placement plan(assign);
    if (plan.Validate(inst.physical, inst.cluster).empty()) {
      plans.emplace(plan.CanonicalKey(inst.physical, inst.cluster), model.Cost(plan));
    }
    int i = 0;
    for (; i < n; ++i) {
      if (++assign[static_cast<size_t>(i)] < w) {
        break;
      }
      assign[static_cast<size_t>(i)] = 0;
    }
    if (i == n) {
      break;
    }
  }
  return plans;
}

class RandomInstanceSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomInstanceSweep, EnumerationMatchesBruteForceExactly) {
  Instance inst = RandomInstance(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  CostModel model(inst.physical, inst.cluster, inst.demands);
  auto reference = BruteForcePlans(inst, model);
  auto plans = EnumerateAllPlans(model);
  ASSERT_EQ(plans.size(), reference.size());
  for (const auto& plan : plans) {
    auto it = reference.find(plan.placement.CanonicalKey(inst.physical, inst.cluster));
    ASSERT_NE(it, reference.end());
    EXPECT_NEAR(plan.cost.cpu, it->second.cpu, 1e-9);
    EXPECT_NEAR(plan.cost.io, it->second.io, 1e-9);
    EXPECT_NEAR(plan.cost.net, it->second.net, 1e-9);
  }
}

TEST_P(RandomInstanceSweep, PruningIsSoundAndComplete) {
  Instance inst = RandomInstance(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  CostModel model(inst.physical, inst.cluster, inst.demands);
  auto reference = BruteForcePlans(inst, model);
  // Use the median cost of the full space as the threshold so both sides are non-trivial.
  std::vector<double> maxima;
  for (const auto& [key, cost] : reference) {
    maxima.push_back(std::max({cost.cpu, cost.io, cost.net}));
  }
  std::sort(maxima.begin(), maxima.end());
  double a = maxima[maxima.size() / 2] + 1e-9;
  ResourceVector alpha{a, a, a};

  SearchOptions options;
  options.alpha = alpha;
  options.collect_plans = true;
  SearchResult result = CapsSearch(model, options).Run();

  std::set<std::string> found;
  for (const auto& plan : result.collected) {
    // Soundness: every returned plan satisfies the thresholds.
    EXPECT_LE(plan.cost.cpu, alpha.cpu + 1e-9);
    EXPECT_LE(plan.cost.io, alpha.io + 1e-9);
    EXPECT_LE(plan.cost.net, alpha.net + 1e-9);
    found.insert(plan.placement.CanonicalKey(inst.physical, inst.cluster));
  }
  // Completeness: every satisfying plan of the full space was found.
  size_t expected = 0;
  for (const auto& [key, cost] : reference) {
    if (cost.cpu <= alpha.cpu + 1e-9 && cost.io <= alpha.io + 1e-9 &&
        cost.net <= alpha.net + 1e-9) {
      ++expected;
      EXPECT_TRUE(found.count(key) > 0);
    }
  }
  EXPECT_EQ(found.size(), expected);
}

TEST_P(RandomInstanceSweep, LeafCountMonotoneInAlpha) {
  Instance inst = RandomInstance(static_cast<uint64_t>(GetParam()) * 31 + 997);
  CostModel model(inst.physical, inst.cluster, inst.demands);
  uint64_t prev = 0;
  for (double a : {0.1, 0.3, 0.6, 1.0}) {
    SearchOptions options;
    options.alpha = ResourceVector{a, a, a};
    SearchResult r = CapsSearch(model, options).Run();
    EXPECT_GE(r.stats.leaves, prev);
    prev = r.stats.leaves;
  }
}

TEST_P(RandomInstanceSweep, BestMatchesBruteForceOptimum) {
  Instance inst = RandomInstance(static_cast<uint64_t>(GetParam()) * 53 + 11);
  CostModel model(inst.physical, inst.cluster, inst.demands);
  auto reference = BruteForcePlans(inst, model);
  SearchResult r = CapsSearch(model, SearchOptions{}).Run();
  ASSERT_TRUE(r.found);
  // The best plan's scalarized cost equals the brute-force optimum.
  double best = 1e300;
  for (const auto& [key, cost] : reference) {
    best = std::min(best, std::max({cost.cpu, cost.io, cost.net}));
  }
  EXPECT_NEAR(r.best.cost.Max(), best, 1e-9);
}

TEST_P(RandomInstanceSweep, ReorderingAndValueOrderingPreserveLeafCount) {
  Instance inst = RandomInstance(static_cast<uint64_t>(GetParam()) * 67 + 3);
  CostModel model(inst.physical, inst.cluster, inst.demands);
  uint64_t counts[4];
  int i = 0;
  for (bool reorder : {false, true}) {
    for (bool value : {false, true}) {
      SearchOptions options;
      options.reorder = reorder;
      options.value_ordering = value;
      counts[i++] = CapsSearch(model, options).Run().stats.leaves;
    }
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
  EXPECT_EQ(counts[2], counts[3]);
}

// A random threshold vector within the span of the plans' costs, kept more than 1e-9 away
// from every plan cost so the cost filter below cannot disagree with the search's load
// check by rounding.
ResourceVector RandomAlpha(const std::vector<ScoredPlan>& plans, Rng& rng) {
  ResourceVector alpha;
  for (Resource r : kAllResources) {
    double lo = 1.0;
    double hi = 0.0;
    for (const auto& p : plans) {
      lo = std::min(lo, p.cost[r]);
      hi = std::max(hi, p.cost[r]);
    }
    double a = lo < hi ? rng.Uniform(lo, hi) : rng.Uniform(0.01, 0.99);
    a = std::clamp(a, 1e-3, 1.0 - 1e-3);
    auto near_a = [&](const ScoredPlan& p) { return std::abs(p.cost[r] - a) <= 1e-9; };
    while (std::any_of(plans.begin(), plans.end(), near_a)) {
      a += 1e-6;
    }
    alpha[r] = a;
  }
  return alpha;
}

// A threshold vector just above one plan's cost, so that plan sits on the bound and any cut
// that is one task too tight removes it.
ResourceVector AlphaAt(const ScoredPlan& plan) {
  ResourceVector alpha;
  for (Resource r : kAllResources) {
    alpha[r] = std::min(plan.cost[r] + 1e-7, 1.0 - 1e-3);
  }
  return alpha;
}

// The lookahead cuts remove only subtrees without a satisfying leaf and keep the DFS order:
// the plans collected at `alpha` are, in order, the unpruned search's plans with cost within
// `alpha`; the find-first plan is the first of them.
void ExpectLookaheadKeepsPlansInOrder(const CostModel& model, const ResourceVector& alpha,
                                      bool reorder) {
  SearchOptions unpruned;
  unpruned.reorder = reorder;
  unpruned.collect_plans = true;
  std::vector<Placement> expected;
  for (const auto& p : CapsSearch(model, unpruned).Run().collected) {
    if (p.cost.cpu <= alpha.cpu && p.cost.io <= alpha.io && p.cost.net <= alpha.net) {
      expected.push_back(p.placement);
    }
  }

  SearchOptions pruned = unpruned;
  pruned.alpha = alpha;
  SearchResult r = CapsSearch(model, pruned).Run();
  EXPECT_EQ(r.stats.leaves, expected.size()) << "alpha " << alpha.ToString();
  ASSERT_EQ(r.collected.size(), expected.size()) << "alpha " << alpha.ToString();
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(r.collected[i].placement == expected[i]) << "plan " << i << " out of order";
  }

  SearchOptions first = pruned;
  first.collect_plans = false;
  first.find_first = true;
  SearchResult f = CapsSearch(model, first).Run();
  ASSERT_EQ(f.found, !expected.empty());
  if (f.found) {
    EXPECT_TRUE(f.best.placement == expected.front());
  }
}

TEST_P(RandomInstanceSweep, LookaheadKeepsPlansInOrder) {
  Instance inst = RandomInstance(static_cast<uint64_t>(GetParam()) * 4241 + 5);
  CostModel model(inst.physical, inst.cluster, inst.demands);
  Rng rng(static_cast<uint64_t>(GetParam()) + 71);
  auto plans = EnumerateAllPlans(model);
  for (int trial = 0; trial < 4; ++trial) {
    ExpectLookaheadKeepsPlansInOrder(model, RandomAlpha(plans, rng), /*reorder=*/true);
  }
}

// The incumbent-bound search makes the band pick among the incumbent and the plans within
// `alpha`: among the plans whose MaxUtilization is within kUtilBand of the lowest, the
// lower max cost, ties within 1e-9 going to the lower cost sum. Each cost key ties within
// 1e-9, so the rounding of the incrementally kept loads, which depends on the visit order,
// cannot make a max cost a few ulps lower beat a lower cost sum.
void ExpectPickIsOptimal(const CostModel& model, const ResourceVector& alpha,
                         const Placement& incumbent, const SearchOptions& options) {
  std::vector<ScoredPlan> candidates{ScoredPlan{incumbent, model.Cost(incumbent)}};
  for (auto& p : EnumerateAllPlans(model)) {
    // A threshold of 1 leaves its dimension unbounded; costs can exceed 1 by rounding.
    if (std::all_of(kAllResources.begin(), kAllResources.end(),
                    [&](Resource r) { return alpha[r] >= 1.0 || p.cost[r] <= alpha[r]; })) {
      candidates.push_back(std::move(p));
    }
  }
  // Keeps the candidates whose `score` is at most `edge` of the least one and returns that
  // least score.
  auto narrow = [&candidates](auto score, auto edge) {
    double least = 1e300;
    for (const auto& c : candidates) {
      least = std::min(least, score(c));
    }
    std::erase_if(candidates, [&](const ScoredPlan& c) { return score(c) > edge(least); });
    return least;
  };
  auto band = [](double least) { return least * (1.0 + kUtilBand) + 1e-9; };
  auto tie = [](double least) { return least + 1e-9; };
  double util = narrow([&](const ScoredPlan& c) { return MaxUtilization(model, c.placement); },
                       band);
  double max = narrow([](const ScoredPlan& c) { return c.cost.Max(); }, tie);
  double sum = narrow([](const ScoredPlan& c) { return c.cost.Sum(); }, tie);
  SearchOptions with_incumbent = options;
  with_incumbent.alpha = alpha;
  with_incumbent.incumbent = incumbent;
  SearchResult r = CapsSearch(model, with_incumbent).Run();
  ASSERT_EQ(r.best.placement.Validate(model.graph(), model.cluster()), "");
  EXPECT_LE(MaxUtilization(model, r.best.placement), band(util));
  EXPECT_NEAR(r.best.cost.Max(), max, 1e-9);
  EXPECT_NEAR(r.best.cost.Sum(), sum, 1e-9) << "cost " << r.best.cost.ToString();
}

// The pick is optimal with the greedy incumbent PlanPlacement passes and with the plan of
// the highest utilization, which leaves the bounds to tighten over many improving leaves,
// as does turning value ordering off.
void ExpectIncumbentPickIsOptimal(const CostModel& model, const ResourceVector& alpha) {
  std::vector<ScoredPlan> plans = EnumerateAllPlans(model);
  auto worst = std::max_element(plans.begin(), plans.end(), [&](const auto& a, const auto& b) {
    return MaxUtilization(model, a.placement) < MaxUtilization(model, b.placement);
  });
  for (const Placement& incumbent : {GreedyBalancedPlacement(model), worst->placement}) {
    for (bool value_ordering : {true, false}) {
      SCOPED_TRACE("alpha " + alpha.ToString() + ", value ordering " +
                   (value_ordering ? "on" : "off") + ", incumbent utilization " +
                   std::to_string(MaxUtilization(model, incumbent)));
      SearchOptions options;
      options.value_ordering = value_ordering;
      ExpectPickIsOptimal(model, alpha, incumbent, options);
    }
  }
}

TEST_P(RandomInstanceSweep, IncumbentPickIsOptimal) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 29);
  for (bool heterogeneous : {false, true}) {
    Instance inst = RandomInstance(static_cast<uint64_t>(GetParam()) * 61 + 17, heterogeneous);
    for (bool normalize : {false, true}) {
      if (normalize && !heterogeneous) {
        continue;
      }
      SCOPED_TRACE(std::string(heterogeneous ? "heterogeneous" : "homogeneous") +
                   (normalize ? ", normalized" : ", absolute"));
      CostModelOptions options;
      options.normalize_by_capacity = normalize;
      CostModel model(inst.physical, inst.cluster, inst.demands, options);
      ExpectIncumbentPickIsOptimal(model, ResourceVector{1.0, 1.0, 1.0});
      ExpectIncumbentPickIsOptimal(model, RandomAlpha(EnumerateAllPlans(model), rng));
    }
  }
}

// Near ties: every task also gets the same large cpu demand, so the count of tasks on the
// busiest worker sets the bottleneck, many plans lie within kUtilBand of the lowest
// utilization, and the costs in the other dimensions decide among them.
TEST_P(RandomInstanceSweep, BandPickIsOptimalOnNearTies) {
  for (bool heterogeneous : {false, true}) {
    Instance inst = RandomInstance(static_cast<uint64_t>(GetParam()) * 61 + 17, heterogeneous);
    double cpu = 0.0;
    for (const auto& d : inst.demands) {
      cpu = std::max(cpu, d.cpu);
    }
    for (double pad : {100.0, 1000.0}) {
      SCOPED_TRACE(std::string(heterogeneous ? "heterogeneous" : "homogeneous") + ", pad " +
                   std::to_string(pad));
      std::vector<ResourceVector> demands = inst.demands;
      for (auto& d : demands) {
        d.cpu += pad * cpu;
      }
      CostModel model(inst.physical, inst.cluster, demands);
      ExpectIncumbentPickIsOptimal(model, ResourceVector{1.0, 1.0, 1.0});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceSweep, ::testing::Range(0, 12));

// The NEXMark queries that fit four workers of four slots, on the homogeneous cluster and on
// mixed hardware under both models, without thresholds and with random ones.
TEST(IncumbentPickTest, NexmarkQueries) {
  Rng rng(4242);
  Cluster homogeneous(4, WorkerSpec::R5dXlarge(4));
  Cluster mixed({WorkerSpec::C5d4xlarge(4), WorkerSpec::R5dXlarge(4), WorkerSpec::M5d2xlarge(4),
                 WorkerSpec::R5dXlarge(4)});
  for (const QuerySpec& q : BuildAllQueries()) {
    if (q.graph.total_parallelism() > homogeneous.total_slots()) {
      continue;
    }
    PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
    auto demands = TaskDemands(physical, PropagateRates(q.graph, q.source_rates));
    for (const Cluster* cluster : {&homogeneous, &mixed}) {
      for (bool normalize : {false, true}) {
        SCOPED_TRACE(q.graph.name() + (cluster == &mixed ? " mixed" : " homogeneous") +
                     (normalize ? " normalized" : " absolute"));
        CostModelOptions options;
        options.normalize_by_capacity = normalize;
        CostModel model(physical, *cluster, demands, options);
        ExpectIncumbentPickIsOptimal(model, ResourceVector{1.0, 1.0, 1.0});
        ExpectIncumbentPickIsOptimal(model, RandomAlpha(EnumerateAllPlans(model), rng));
      }
    }
  }
}

// The NEXMark queries that fit the 4x4 cluster (Q2 and Q3 have 665 and 950 plans), with
// random thresholds and thresholds on a spread of plans.
TEST(LookaheadOrderTest, NexmarkQueries) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  Rng rng(2024);
  for (const QuerySpec& q : BuildAllQueries()) {
    if (q.graph.total_parallelism() > cluster.total_slots()) {
      continue;
    }
    PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
    CostModel model(physical, cluster,
                    TaskDemands(physical, PropagateRates(q.graph, q.source_rates)));
    auto plans = EnumerateAllPlans(model);
    for (bool reorder : {false, true}) {
      for (int trial = 0; trial < 3; ++trial) {
        ExpectLookaheadKeepsPlansInOrder(model, RandomAlpha(plans, rng), reorder);
      }
      for (size_t i = 0; i < plans.size(); i += plans.size() / 7 + 1) {
        ExpectLookaheadKeepsPlansInOrder(model, AlphaAt(plans[i]), reorder);
      }
    }
  }
}

// Placed in id order, the join comes after one of its sources and before the other source
// and its sink, so the later-sender and later-receiver cuts decide. The join's layer is
// entered many times, and off the first path it sets up the cuts. Thresholds sit on every
// plan in turn.
TEST(LookaheadOrderTest, LaterSenderAndReceiver) {
  LogicalGraph graph("fan-in");
  OperatorProfile source;
  source.cpu_per_record = 1e-6;
  source.out_bytes_per_record = 4000;
  OperatorProfile join;
  join.cpu_per_record = 2e-4;
  join.out_bytes_per_record = 200;
  OperatorProfile sink;
  sink.cpu_per_record = 5e-5;
  OperatorId b = graph.AddOperator("source-b", OperatorKind::kSource, source, 2);
  OperatorId j = graph.AddOperator("join", OperatorKind::kMap, join, 3);
  OperatorId a = graph.AddOperator("source-a", OperatorKind::kSource, source, 1);
  OperatorId out = graph.AddOperator("sink", OperatorKind::kSink, sink, 1);
  graph.AddEdge(a, j);
  graph.AddEdge(b, j);
  graph.AddEdge(j, out);
  Cluster cluster(3, WorkerSpec::R5dXlarge(3));
  PhysicalGraph physical = PhysicalGraph::Expand(graph);
  CostModel model(physical, cluster, TaskDemands(physical, PropagateRates(graph, 2000.0)));
  SearchOptions unpruned;
  unpruned.reorder = false;
  unpruned.collect_plans = true;
  auto plans = CapsSearch(model, unpruned).Run().collected;
  ASSERT_GT(plans.size(), 20u);
  for (const auto& plan : plans) {
    ExpectLookaheadKeepsPlansInOrder(model, AlphaAt(plan), /*reorder=*/false);
  }
}

// Heterogeneous workers with capacity-normalized loads: the per-worker scales enter every
// fit and inbound gain.
TEST(LookaheadOrderTest, HeterogeneousNormalized) {
  QuerySpec q = BuildQ3Inf();
  Cluster cluster({WorkerSpec::M5d2xlarge(6), WorkerSpec::R5dXlarge(4),
                   WorkerSpec::R5dXlarge(4)});
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  CostModelOptions options;
  options.normalize_by_capacity = true;
  CostModel model(physical, cluster,
                  TaskDemands(physical, PropagateRates(q.graph, q.source_rates)), options);
  auto plans = EnumerateAllPlans(model);
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    ExpectLookaheadKeepsPlansInOrder(model, RandomAlpha(plans, rng), /*reorder=*/true);
  }
}

}  // namespace
}  // namespace capsys
