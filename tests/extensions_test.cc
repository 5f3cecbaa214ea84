// Tests for the extension features: precomputed thresholds in the plan cache (offline
// precomputation), online cost profiling, and the search ablation switches.
#include <gtest/gtest.h>

#include "src/caps/greedy.h"
#include "src/caps/plan_cache.h"
#include "src/controller/deployment.h"
#include "src/controller/profiler.h"
#include "src/controller/recovery.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

// --- Precomputed thresholds in the plan cache --------------------------------------------------

// Key of `q` at parallelism `scenario` on `cluster`.
std::string ScenarioKey(const QuerySpec& q, const std::vector<int>& scenario,
                        const Cluster& cluster) {
  LogicalGraph sized = q.graph;
  sized.SetParallelism(scenario);
  return PlanCache::Key(sized, q.source_rates, cluster);
}

TEST(PrecomputedThresholdsTest, PrecomputeAndLookup) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  std::vector<std::vector<int>> scenarios = {{2, 5, 8, 1}, {1, 3, 4, 1}};
  PlanCache cache;
  PrecomputeThresholds(cache, q.graph, q.source_rates, cluster, scenarios);
  EXPECT_EQ(cache.size(), 2u);
  auto entry = cache.Lookup(ScenarioKey(q, {2, 5, 8, 1}, cluster));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->placement.num_tasks(), 0);  // thresholds only
  EXPECT_GT(entry->alpha.cpu, 0.0);
  EXPECT_LE(entry->alpha.cpu, 1.0);
  EXPECT_FALSE(cache.Lookup(ScenarioKey(q, {9, 9, 9, 9}, cluster)).has_value());
}

TEST(PrecomputedThresholdsTest, SkipsScenariosThatDoNotFit) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(2, WorkerSpec::R5dXlarge(4));  // 8 slots
  PlanCache cache;
  PrecomputeThresholds(cache, q.graph, q.source_rates, cluster, {{4, 4, 8, 4}});  // 20 tasks
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PrecomputedThresholdsTest, SerializeRoundTrip) {
  QuerySpec q = BuildQ1Sliding();
  Cluster small(2, WorkerSpec::R5dXlarge(4));
  Cluster large(4, WorkerSpec::R5dXlarge(4));
  PlanCache cache;
  cache.Insert(ScenarioKey(q, {1, 2, 4, 1}, small), CachedPlan{{}, {0.1, 0.2, 0.3}, {}});
  cache.Insert(ScenarioKey(q, {1, 2, 4, 1}, large),
               CachedPlan{Placement(8), {0.4, 0.5, 0.6}, {}});
  PlanCache restored;
  ASSERT_TRUE(restored.Deserialize(cache.Serialize()));
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.Serialize(), cache.Serialize());
  auto entry = restored.Lookup(ScenarioKey(q, {1, 2, 4, 1}, small));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->alpha.io, 0.2);
  // Placements are not persisted: a restored entry holds thresholds only.
  auto other = restored.Lookup(ScenarioKey(q, {1, 2, 4, 1}, large));
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->alpha.net, 0.6);
  EXPECT_EQ(other->placement.num_tasks(), 0);
}

TEST(PrecomputedThresholdsTest, DeserializeRejectsGarbage) {
  PlanCache cache;
  cache.Insert("00|4/4/1/1;", CachedPlan{{}, {0.5, 0.5, 0.5}, {}});
  EXPECT_FALSE(cache.Deserialize("not,numbers x y z\n"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Deserialize("no-separator 0.1 0.2 0.3\n"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PrecomputedThresholdsTest, SameCapacityShapeGivesSameKey) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PlanCache cache;
  PrecomputeThresholds(cache, q.graph, q.source_rates, cluster, {{2, 5, 8, 1}});
  ASSERT_EQ(cache.size(), 1u);
  // An equal-shaped cluster object (e.g. after a scheduler epoch bump: reservations change
  // slot occupancy, never capacity) finds the entry.
  Cluster same_shape(4, WorkerSpec::R5dXlarge(4));
  EXPECT_EQ(ClusterSignature(same_shape), ClusterSignature(cluster));
  EXPECT_TRUE(cache.Lookup(ScenarioKey(q, {2, 5, 8, 1}, same_shape)).has_value());
}

TEST(PrecomputedThresholdsTest, WorkerCountChangeGivesNewKey) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PlanCache cache;
  PrecomputeThresholds(cache, q.graph, q.source_rates, cluster, {{2, 5, 8, 1}});
  ASSERT_EQ(cache.size(), 1u);
  Cluster shrunk(3, WorkerSpec::R5dXlarge(4));  // a worker died: capacity shape changed
  EXPECT_FALSE(cache.Lookup(ScenarioKey(q, {2, 5, 8, 1}, shrunk)).has_value());
  // Tuning on the new shape adds an entry beside the old one instead of mixing them.
  Cluster grown(8, WorkerSpec::R5dXlarge(4));
  PrecomputeThresholds(cache, q.graph, q.source_rates, grown, {{2, 5, 8, 1}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(ScenarioKey(q, {2, 5, 8, 1}, cluster)).has_value());
  EXPECT_TRUE(cache.Lookup(ScenarioKey(q, {2, 5, 8, 1}, grown)).has_value());
}

TEST(PrecomputedThresholdsTest, SpecChangeGivesNewKey) {
  QuerySpec q = BuildQ1Sliding();
  // Same worker count and slots but a bigger instance type: alphas are capacity fractions.
  Cluster small(2, WorkerSpec::R5dXlarge(4));
  Cluster bigger(2, WorkerSpec::C5d4xlarge(4));
  EXPECT_NE(ClusterSignature(small), ClusterSignature(bigger));
  EXPECT_NE(ScenarioKey(q, {1, 1, 1, 1}, small), ScenarioKey(q, {1, 1, 1, 1}, bigger));
}

// The alpha of the latest placement decision in the event log.
std::string LastDecisionAlpha() {
  std::string alpha;
  for (const Event& e : EventLog::Global().Snapshot()) {
    if (e.type == EventType::kPlacementDecision) {
      alpha.clear();
      for (const auto& [name, value] : e.fields) {
        if (name.rfind("alpha_", 0) == 0) {
          alpha += name + "=" + value + " ";
        }
      }
    }
  }
  return alpha;
}

TEST(PrecomputedThresholdsTest, ThresholdsOfAnotherCapacityShapeAreRetuned) {
  QuerySpec q = BuildQ1Sliding();
  Cluster four(4, WorkerSpec::R5dXlarge(4));
  Cluster eight(8, WorkerSpec::R5dXlarge(4));
  DeployOptions options;
  options.policy = PlacementPolicy::kCaps;
  options.use_ds2_sizing = false;  // keep the parallelism the cache was filled for
  options.search_threads = 1;
  Deployment fresh = CapsysController(four, options).Deploy(q);

  PlanCache cache;
  PrecomputeThresholds(cache, q.graph, q.source_rates, eight, {q.graph.Parallelism()});
  auto stale = cache.Lookup(PlanCache::Key(q.graph, q.source_rates, eight));
  ASSERT_TRUE(stale.has_value());
  ASSERT_NE(stale->alpha.ToString(), fresh.alpha.ToString());  // the test can tell them apart
  PlanCache restored;
  ASSERT_TRUE(restored.Deserialize(cache.Serialize()));

  // Recovery onto the four survivors of a five-worker cluster whose thresholds were
  // precomputed before the crash.
  Cluster five(5, WorkerSpec::R5dXlarge(4));
  PlanCache five_cache;
  PrecomputeThresholds(five_cache, q.graph, q.source_rates, five, {q.graph.Parallelism()});
  PlanCache five_restored;
  ASSERT_TRUE(five_restored.Deserialize(five_cache.Serialize()));
  std::vector<bool> usable = {true, true, true, false, true};
  EventLog::Global().Reset();
  EventLog::Global().Enable();
  PlanRecovery(q.graph, q.source_rates, fresh.costs, five, usable, options);
  std::string fresh_recovery_alpha = LastDecisionAlpha();
  ASSERT_FALSE(fresh_recovery_alpha.empty());

  for (auto [deploy_cache, recovery_cache] :
       {std::pair{&cache, &five_cache}, std::pair{&restored, &five_restored}}) {
    options.plan_cache = deploy_cache;
    Deployment d = CapsysController(four, options).Deploy(q);
    EXPECT_EQ(d.alpha.cpu, fresh.alpha.cpu);
    EXPECT_EQ(d.alpha.io, fresh.alpha.io);
    EXPECT_EQ(d.alpha.net, fresh.alpha.net);
    options.plan_cache = recovery_cache;
    RecoveryPlan plan =
        PlanRecovery(q.graph, q.source_rates, fresh.costs, five, usable, options);
    EXPECT_EQ(plan.outcome, RecoveryOutcome::kRecoveredFull);
    EXPECT_EQ(LastDecisionAlpha(), fresh_recovery_alpha);
  }
  EventLog::Global().Disable();
  EventLog::Global().Reset();
}

TEST(PrecomputedThresholdsTest, ScalingScenarioEnumeration) {
  QuerySpec q = BuildQ3Inf();
  auto scenarios = EnumerateScalingScenarios(q.graph, q.source_rates,
                                             WorkerSpec::R5dXlarge(4), {0.5, 1.0, 2.0, 4.0});
  EXPECT_GE(scenarios.size(), 2u);  // different rates need different parallelism
  for (const auto& s : scenarios) {
    EXPECT_EQ(s.size(), 4u);
    for (int p : s) {
      EXPECT_GE(p, 1);
    }
  }
  // Higher rates require at least as much total parallelism: scenarios are deduplicated and
  // sorted lexicographically, so just check min and max totals differ.
  int min_total = 1 << 30;
  int max_total = 0;
  for (const auto& s : scenarios) {
    int total = 0;
    for (int p : s) {
      total += p;
    }
    min_total = std::min(min_total, total);
    max_total = std::max(max_total, total);
  }
  EXPECT_LT(min_total, max_total);
}

TEST(PrecomputedThresholdsTest, DeploymentUsesCachedThresholds) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  // Cache an entry for the query on this cluster with a recognizable alpha.
  PlanCache cache;
  cache.Insert(PlanCache::Key(q.graph, q.source_rates, cluster),
               CachedPlan{{}, ResourceVector{0.37, 0.41, 0.93}, {}});
  DeployOptions options;
  options.policy = PlacementPolicy::kCaps;
  options.use_ds2_sizing = false;  // keep the default parallelism so the cache key matches
  options.plan_cache = &cache;
  CapsysController controller(cluster, options);
  Deployment d = controller.Deploy(q);
  EXPECT_NEAR(d.alpha.cpu, 0.37, 1e-12);
  EXPECT_NEAR(d.alpha.net, 0.93, 1e-12);
  EXPECT_EQ(cache.hits(), 1u);
}

// --- Online profiling ---------------------------------------------------------------------------

TEST(OnlineProfilerTest, EstimatesMatchDeclaredCostsOnRunningQuery) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  FluidSimulator sim(physical, cluster, GreedyBalancedPlacement(model));
  sim.SetAllSourceRates(10000.0);  // below saturation
  sim.RunFor(90);

  std::vector<MeasuredCost> previous(4);
  auto costs = EstimateCostsOnline(sim, 30.0, sim.time_s(), previous);
  EXPECT_NEAR(costs[1].cpu_per_record, 40e-6, 8e-6);       // map
  EXPECT_NEAR(costs[1].selectivity, 0.9, 0.02);
  EXPECT_NEAR(costs[2].io_bytes_per_record, 35000, 3500);  // window
  EXPECT_NEAR(costs[2].selectivity, 0.05, 0.005);
}

TEST(OnlineProfilerTest, KeepsPreviousEstimateWhenNoTraffic) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  FluidSimulator sim(physical, cluster, GreedyBalancedPlacement(model));
  sim.SetAllSourceRates(0.0);  // idle query
  sim.RunFor(30);
  std::vector<MeasuredCost> previous(4);
  previous[1].cpu_per_record = 123e-6;
  auto costs = EstimateCostsOnline(sim, 0.0, sim.time_s(), previous);
  EXPECT_EQ(costs[1].cpu_per_record, 123e-6);
}

TEST(OnlineProfilerTest, TracksRateChanges) {
  // Unit costs must be rate-invariant: estimates at two different rates agree.
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  FluidSimulator sim(physical, cluster, GreedyBalancedPlacement(model));
  std::vector<MeasuredCost> previous(4);
  sim.SetAllSourceRates(4000.0);
  sim.RunFor(60);
  auto low = EstimateCostsOnline(sim, 30.0, sim.time_s(), previous);
  double mark = sim.time_s();
  sim.SetAllSourceRates(10000.0);
  sim.RunFor(60);
  auto high = EstimateCostsOnline(sim, mark + 30.0, sim.time_s(), previous);
  EXPECT_NEAR(low[2].io_bytes_per_record, high[2].io_bytes_per_record,
              0.05 * low[2].io_bytes_per_record);
}

// An estimate over a past window reads that window only, whatever ran after it: usage and
// rates must come from the same flushes.
TEST(OnlineProfilerTest, PastWindowIgnoresLaterTraffic) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  FluidSimulator sim(physical, cluster, GreedyBalancedPlacement(model));
  std::vector<MeasuredCost> previous(4);
  sim.SetAllSourceRates(4000.0);
  sim.RunFor(60);
  double mark = sim.time_s();
  auto then = EstimateCostsOnline(sim, 30.0, mark, previous);
  sim.SetAllSourceRates(10000.0);
  sim.RunFor(60);
  auto now = EstimateCostsOnline(sim, 30.0, mark, previous);
  for (size_t o = 0; o < then.size(); ++o) {
    EXPECT_EQ(now[o].cpu_per_record, then[o].cpu_per_record) << o;
    EXPECT_EQ(now[o].io_bytes_per_record, then[o].io_bytes_per_record) << o;
    EXPECT_EQ(now[o].out_bytes_per_record, then[o].out_bytes_per_record) << o;
    EXPECT_EQ(now[o].selectivity, then[o].selectivity) << o;
  }
}

// --- Search ablation switches ---------------------------------------------------------------------

TEST(SearchAblationTest, DisablingDedupMultipliesLeavesBySymmetryFactor) {
  // 1 op with 2 tasks on 3 workers: 2 distinct plans (co-located / split), but without
  // symmetry breaking: 3 co-located + 3 split = 9 assignments... per-task enumeration
  // counts ordered assignments: 3 (both same) + 6 (ordered pairs) = 9.
  LogicalGraph g("tiny");
  OperatorProfile p;
  p.cpu_per_record = 1e-5;
  g.AddOperator("a", OperatorKind::kSource, p, 2);
  PhysicalGraph physical = PhysicalGraph::Expand(g);
  Cluster cluster(3, WorkerSpec::R5dXlarge(2));
  CostModel model(physical, cluster,
                  TaskDemands(physical, PropagateRates(g, 100.0)));
  SearchOptions with;
  SearchOptions without;
  without.eliminate_duplicates = false;
  SearchResult a = CapsSearch(model, with).Run();
  SearchResult b = CapsSearch(model, without).Run();
  EXPECT_EQ(a.stats.leaves, 2u);
  EXPECT_GT(b.stats.leaves, a.stats.leaves);
}

TEST(SearchAblationTest, ValueOrderingPreservesLeafCount) {
  QuerySpec q = BuildQ2Join();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  SearchOptions on;
  SearchOptions off;
  off.value_ordering = false;
  SearchResult a = CapsSearch(model, on).Run();
  SearchResult b = CapsSearch(model, off).Run();
  EXPECT_EQ(a.stats.leaves, b.stats.leaves);
  EXPECT_EQ(a.stats.leaves, 665u);
}

TEST(SearchAblationTest, ValueOrderingFindsBalancedPlanFirst) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  SearchOptions options;
  options.find_first = true;  // alpha = 1: any plan satisfies; ordering decides which
  SearchResult r = CapsSearch(model, options).Run();
  ASSERT_TRUE(r.found);
  // The first plan must spread the window tasks evenly (2 per worker).
  EXPECT_EQ(r.best.placement.ColocationDegree(physical, cluster, 2), 2);
}

}  // namespace
}  // namespace capsys
