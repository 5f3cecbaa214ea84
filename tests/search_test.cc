// Tests for the CAPS search (src/caps/search.h): enumeration completeness and uniqueness,
// plan-count reproduction, threshold pruning, reordering, parallel search, and find-first;
// and for the plan step built on it (src/caps/plan.h).
#include "src/caps/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/caps/plan.h"
#include "src/controller/deployment.h"
#include "src/controller/profiler.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

// Builds a linear chain query src -> mid... with the given parallelisms and simple uniform
// profiles, all-to-all edges.
LogicalGraph ChainGraph(const std::vector<int>& parallelisms) {
  LogicalGraph g("chain");
  OperatorProfile prof;
  prof.cpu_per_record = 1e-5;
  prof.io_bytes_per_record = 100;
  prof.out_bytes_per_record = 100;
  OperatorId prev = kInvalidId;
  for (size_t i = 0; i < parallelisms.size(); ++i) {
    OperatorKind kind = i == 0 ? OperatorKind::kSource
                               : (i + 1 == parallelisms.size() ? OperatorKind::kSink
                                                               : OperatorKind::kMap);
    OperatorId id = g.AddOperator("op" + std::to_string(i), kind, prof, parallelisms[i]);
    if (prev != kInvalidId) {
      g.AddEdge(prev, id, PartitionScheme::kHash);
    }
    prev = id;
  }
  return g;
}

CostModel MakeModel(const PhysicalGraph& graph, const Cluster& cluster, double rate = 1000.0) {
  auto rates = PropagateRates(graph.logical(), rate);
  return CostModel(graph, cluster, TaskDemands(graph, rates));
}

// The widest shape the repository benchmark's service workload submits as a fresh shape:
// every operator but the sink one wider than its default.
LogicalGraph WidestServiceShape(LogicalGraph g) {
  std::vector<int> widths;
  for (const auto& op : g.operators()) {
    widths.push_back(op.kind == OperatorKind::kSink ? op.parallelism : op.parallelism + 1);
  }
  g.SetParallelism(widths);
  return g;
}

// A residual cluster of that workload's c5d.4xlarge workers, with `free` slots left each.
Cluster ServiceResidual(const std::vector<int>& free) {
  std::vector<WorkerSpec> specs;
  for (int slots : free) {
    specs.push_back(WorkerSpec::C5d4xlarge(slots));
  }
  return Cluster(specs);
}

// Brute-force enumeration of all valid plans, deduplicated by canonical key. The reference
// for completeness/uniqueness checks.
int BruteForceDistinctPlans(const PhysicalGraph& graph, const Cluster& cluster) {
  int n = graph.num_tasks();
  int w = cluster.num_workers();
  std::set<std::string> keys;
  std::vector<WorkerId> assign(static_cast<size_t>(n), 0);
  while (true) {
    Placement plan(assign);
    if (plan.Validate(graph, cluster).empty()) {
      keys.insert(plan.CanonicalKey(graph, cluster));
    }
    // Increment the mixed-radix counter.
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
  return static_cast<int>(keys.size());
}

TEST(CapsSearchTest, MatchesBruteForceOnSmallInstances) {
  struct Case {
    std::vector<int> parallelisms;
    int workers;
    int slots;
  };
  std::vector<Case> cases = {
      {{1, 1}, 2, 2},  {{2, 1}, 2, 2},   {{2, 2}, 2, 3},
      {{2, 2}, 3, 2},  {{1, 2, 1}, 2, 2}, {{2, 2, 1}, 3, 2},
      {{3, 2}, 3, 2},  {{2, 3, 1}, 3, 3},
  };
  for (const auto& c : cases) {
    LogicalGraph logical = ChainGraph(c.parallelisms);
    PhysicalGraph graph = PhysicalGraph::Expand(logical);
    WorkerSpec spec;
    spec.slots = c.slots;
    Cluster cluster(c.workers, spec);
    if (cluster.total_slots() < graph.num_tasks()) {
      continue;
    }
    CostModel model = MakeModel(graph, cluster);
    auto plans = EnumerateAllPlans(model);
    int expected = BruteForceDistinctPlans(graph, cluster);
    EXPECT_EQ(static_cast<int>(plans.size()), expected)
        << "parallelisms size=" << c.parallelisms.size() << " workers=" << c.workers
        << " slots=" << c.slots;
    // Uniqueness: no two enumerated plans share a canonical key.
    std::set<std::string> keys;
    for (const auto& p : plans) {
      EXPECT_TRUE(keys.insert(p.placement.CanonicalKey(graph, cluster)).second);
      EXPECT_EQ(p.placement.Validate(graph, cluster), "");
    }
  }
}

TEST(CapsSearchTest, ReproducesPaperPlanCountFig4Example) {
  // Figure 4: operators S->T->I->K with parallelism 2,2,4,1 on 3 workers x 3 slots.
  LogicalGraph logical = ChainGraph({2, 2, 4, 1});
  PhysicalGraph graph = PhysicalGraph::Expand(logical);
  WorkerSpec spec;
  spec.slots = 3;
  Cluster cluster(3, spec);
  CostModel model = MakeModel(graph, cluster);
  EXPECT_EQ(EnumerateAllPlans(model).size(), 16u);
}

TEST(CapsSearchTest, ReproducesPaperPlanCountQ1Sliding) {
  // §3.2: Q1-sliding on the 4-worker, 16-slot cluster has 80 possible placement plans.
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  EXPECT_EQ(EnumerateAllPlans(model).size(), 80u);
}

TEST(CapsSearchTest, ReproducesPaperPlanCountQ2Join) {
  // §3.3: Q2-join has 665 possible plans on the same cluster.
  QuerySpec q = BuildQ2Join();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  EXPECT_EQ(EnumerateAllPlans(model).size(), 665u);
}

TEST(CapsSearchTest, ReproducesPaperPlanCountQ3Inf) {
  // §3.3: Q3-inf has 950 possible plans on the same cluster.
  QuerySpec q = BuildQ3Inf();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  EXPECT_EQ(EnumerateAllPlans(model).size(), 950u);
}

TEST(CapsSearchTest, ThresholdPruningReducesLeavesAndKeepsValidity) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));

  SearchOptions loose;
  loose.alpha = ResourceVector{1.0, 1.0, 1.0};
  SearchResult all = CapsSearch(model, loose).Run();
  ASSERT_TRUE(all.found);

  // Thresholds slightly above the optimum: the pruned search must find a satisfying plan
  // while cutting a large part of the tree.
  SearchOptions tight;
  tight.alpha.cpu = std::min(1.0, all.best.cost.cpu * 1.05 + 1e-6);
  tight.alpha.io = std::min(1.0, all.best.cost.io * 1.05 + 1e-6);
  tight.alpha.net = 1.0;
  SearchResult pruned = CapsSearch(model, tight).Run();
  EXPECT_GT(all.stats.leaves, pruned.stats.leaves);
  EXPECT_GT(pruned.stats.pruned, 0u);
  ASSERT_TRUE(pruned.found);
  EXPECT_LE(pruned.best.cost.cpu, tight.alpha.cpu + 1e-9);
  EXPECT_LE(pruned.best.cost.io, tight.alpha.io + 1e-9);
  // Every satisfying plan found under pruning must also exist in the full enumeration.
  EXPECT_EQ(pruned.best.placement.Validate(graph, cluster), "");
}

TEST(CapsSearchTest, IncrementalCostMatchesCostModelAtLeaves) {
  QuerySpec q = BuildQ3Inf();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  auto plans = EnumerateAllPlans(model);
  ASSERT_FALSE(plans.empty());
  for (size_t i = 0; i < plans.size(); i += 37) {  // sample
    ResourceVector direct = model.Cost(plans[i].placement);
    EXPECT_NEAR(plans[i].cost.cpu, direct.cpu, 1e-9);
    EXPECT_NEAR(plans[i].cost.io, direct.io, 1e-9);
    EXPECT_NEAR(plans[i].cost.net, direct.net, 1e-9);
  }
}

TEST(CapsSearchTest, ReorderingPreservesLeafCount) {
  QuerySpec q = BuildQ2Join();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));

  SearchOptions plain;
  plain.reorder = false;
  SearchOptions reordered;
  reordered.reorder = true;
  SearchResult a = CapsSearch(model, plain).Run();
  SearchResult b = CapsSearch(model, reordered).Run();
  EXPECT_EQ(a.stats.leaves, b.stats.leaves);
}

TEST(CapsSearchTest, ReorderingPrunesEarlier) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));

  SearchOptions plain;
  plain.reorder = false;
  plain.alpha = ResourceVector{0.1, 0.1, 1.0};
  SearchOptions reordered = plain;
  reordered.reorder = true;
  SearchResult a = CapsSearch(model, plain).Run();
  SearchResult b = CapsSearch(model, reordered).Run();
  EXPECT_EQ(a.stats.leaves, b.stats.leaves);
  // The heavy sliding-window operator is explored first, so infeasible branches die near
  // the root and the tree shrinks.
  EXPECT_LE(b.stats.nodes, a.stats.nodes);
}

TEST(CapsSearchTest, FindFirstStopsEarly) {
  QuerySpec q = BuildQ2Join();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));

  SearchOptions options;
  options.find_first = true;
  SearchResult r = CapsSearch(model, options).Run();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.stats.leaves, 1u);
}

TEST(CapsSearchTest, TimeoutIsHonored) {
  // A large instance with a microscopic budget must stop quickly and report the timeout.
  QuerySpec q = BuildQ2Join();
  q.graph.SetParallelism({4, 4, 8, 8, 16});
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(10, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  SearchOptions options;
  options.timeout_s = 1e-4;
  SearchResult r = CapsSearch(model, options).Run();
  EXPECT_TRUE(r.stats.timed_out);
  EXPECT_LT(r.stats.elapsed_s, 5.0);
}

// A timed search samples the clock on every 1024th of its own stop checks. Under a budget
// that every clock read exceeds it stops at its first read, so at the same node whatever
// searches ran before it on the same thread.
TEST(CapsSearchTest, TimedSearchStopsAtTheSameNodeAfterAnotherSearch) {
  QuerySpec q = BuildQ2Join();
  q.graph.SetParallelism({4, 4, 8, 8, 16});
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(10, WorkerSpec::R5dXlarge(4));
  CostModel model(graph, cluster, TaskDemands(graph, PropagateRates(q.graph, q.source_rates)));
  SearchOptions timed;
  timed.timeout_s = 1e-12;
  SearchResult first = CapsSearch(model, timed).Run();
  ASSERT_TRUE(first.stats.timed_out);

  QuerySpec small = BuildQ2Join();
  PhysicalGraph small_graph = PhysicalGraph::Expand(small.graph);
  Cluster small_cluster(4, WorkerSpec::R5dXlarge(4));
  CostModel small_model(small_graph, small_cluster,
                        TaskDemands(small_graph, PropagateRates(small.graph, small.source_rates)));
  ASSERT_FALSE(CapsSearch(small_model, SearchOptions{}).Run().stats.timed_out);

  SearchResult again = CapsSearch(model, timed).Run();
  ASSERT_TRUE(again.stats.timed_out);
  EXPECT_EQ(again.stats.nodes, first.stats.nodes);
}

// A node budget stops a find-first walk at the same node on every run, whatever the
// clock says, and a budget the walk does not reach changes nothing.
TEST(CapsSearchTest, NodeBudgetStopsTheWalkDeterministically) {
  QuerySpec q = BuildQ2Join();
  q.graph.SetParallelism({2, 2, 4, 4, 8});
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(8, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  SearchOptions options;
  options.alpha.net = 0.33;
  options.find_first = true;
  SearchResult unbounded = CapsSearch(model, options).Run();
  ASSERT_TRUE(unbounded.found);
  EXPECT_FALSE(unbounded.stats.budget_hit);
  // The first leaf lies past this budget.
  const uint64_t budget = unbounded.stats.nodes / 2;
  ASSERT_GT(budget, 10u);

  options.max_nodes = budget;
  SearchResult cut = CapsSearch(model, options).Run();
  EXPECT_FALSE(cut.found);
  EXPECT_TRUE(cut.stats.budget_hit);
  EXPECT_FALSE(cut.stats.timed_out);
  EXPECT_LE(cut.stats.nodes, budget + 1);
  SearchResult again = CapsSearch(model, options).Run();
  EXPECT_FALSE(again.found);
  EXPECT_EQ(again.stats.nodes, cut.stats.nodes);
  EXPECT_EQ(again.stats.leaves, cut.stats.leaves);
  EXPECT_EQ(again.stats.pruned, cut.stats.pruned);
  EXPECT_TRUE(again.stats.budget_hit);
  EXPECT_FALSE(again.stats.timed_out);

  options.max_nodes = unbounded.stats.nodes;
  SearchResult roomy = CapsSearch(model, options).Run();
  ASSERT_TRUE(roomy.found);
  EXPECT_TRUE(roomy.best.placement == unbounded.best.placement);
  EXPECT_EQ(roomy.best.cost, unbounded.best.cost);
  EXPECT_EQ(roomy.stats.nodes, unbounded.stats.nodes);
  EXPECT_EQ(roomy.stats.leaves, unbounded.stats.leaves);
  EXPECT_EQ(roomy.stats.pruned, unbounded.stats.pruned);
  EXPECT_FALSE(roomy.stats.budget_hit);
  EXPECT_FALSE(roomy.stats.timed_out);
}

// A branch and bound that its node budget cuts returns the best candidate found by then,
// the incumbent among them, and on one thread stops one node past the budget on every run.
// PlanPlacement's final search relies on both (kFinalSearchNodeBudget).
TEST(CapsSearchTest, NodeBudgetEndsBranchAndBoundAtTheBestCandidateSoFar) {
  QuerySpec q = BuildQ4Join();
  LogicalGraph g = WidestServiceShape(q.graph);
  PhysicalGraph graph = PhysicalGraph::Expand(g);
  Cluster cluster = ServiceResidual({13, 4, 9, 16, 2, 7});
  CostModel model(graph, cluster, TaskDemands(graph, PropagateRates(g, q.source_rates)));
  SearchOptions options;
  options.incumbent = GreedyBalancedPlacement(model);
  options.max_nodes = 10'000;
  SearchResult cut = CapsSearch(model, options).Run();
  EXPECT_TRUE(cut.stats.budget_hit);
  EXPECT_FALSE(cut.stats.timed_out);
  EXPECT_EQ(cut.stats.nodes, options.max_nodes + 1);
  EXPECT_EQ(cut.best.placement.Validate(graph, cluster), "");
  EXPECT_LE(MaxUtilization(model, cut.best.placement),
            MaxUtilization(model, *options.incumbent));
  SearchResult again = CapsSearch(model, options).Run();
  EXPECT_TRUE(again.best.placement == cut.best.placement);
  EXPECT_EQ(again.best.cost, cut.best.cost);
  EXPECT_EQ(again.stats.nodes, cut.stats.nodes);
  EXPECT_EQ(again.stats.leaves, cut.stats.leaves);
}

TEST(CapsSearchTest, SearchableRejectsForwardEdgeOutOfParallelOperator) {
  LogicalGraph g = ChainGraph({1, 1, 2});
  EXPECT_TRUE(CapsSearchable(g));
  LogicalGraph fwd("fwd");
  OperatorId a = fwd.AddOperator("a", OperatorKind::kSource, OperatorProfile{}, 1);
  OperatorId b = fwd.AddOperator("b", OperatorKind::kSink, OperatorProfile{}, 1);
  fwd.AddEdge(a, b, PartitionScheme::kForward);
  EXPECT_TRUE(CapsSearchable(fwd));
  fwd.SetParallelism({2, 2});
  EXPECT_FALSE(CapsSearchable(fwd));
}

// MaxUtilization divides the absolute model's loads by the capacities, and reads the
// normalized model's loads, which are already utilizations, as they are: one plan scores
// the same under both models.
TEST(MaxUtilizationTest, SameUnderAbsoluteAndNormalizedModels) {
  QuerySpec q = BuildQ3Inf();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster({WorkerSpec::C5d4xlarge(6), WorkerSpec::M5d2xlarge(5),
                   WorkerSpec::R5dXlarge(4)});
  auto demands = TaskDemands(graph, PropagateRates(q.graph, q.source_rates));
  CostModel absolute(graph, cluster, demands);
  CostModelOptions normalize;
  normalize.normalize_by_capacity = true;
  CostModel normalized(graph, cluster, demands, normalize);
  Placement plan = GreedyBalancedPlacement(absolute);
  double util = MaxUtilization(absolute, plan);
  EXPECT_GT(util, 0.0);
  EXPECT_NEAR(MaxUtilization(normalized, plan), util, 1e-12);
  // By hand: the largest load share of any worker's capacity in any dimension.
  double expected = 0.0;
  auto loads = absolute.WorkerLoads(plan);
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    const WorkerSpec& spec = cluster.worker(w).spec;
    const ResourceVector& l = loads[static_cast<size_t>(w)];
    expected = std::max({expected, l.cpu / spec.cpu_capacity, l.io / spec.io_bandwidth_bps,
                         l.net / spec.net_bandwidth_bps});
  }
  EXPECT_EQ(util, expected);
}

TEST(PlanPlacementTest, InfeasibleAlphaReturnsGreedyPlan) {
  PhysicalGraph graph = PhysicalGraph::Expand(ChainGraph({1, 3, 1}));
  Cluster cluster(2, WorkerSpec::R5dXlarge(4));
  CostModel model = MakeModel(graph, cluster);
  const ResourceVector tight{0.0, 0.0, 0.0};
  SearchOptions options;
  options.alpha = tight;
  ASSERT_FALSE(CapsSearch(model, options).Run().found);  // 5 tasks on 2 workers never balance
  PlannedPlacement planned = PlanPlacement(model, tight, AutoTuneOptions{}, 1000);
  EXPECT_EQ(planned.placement, GreedyBalancedPlacement(model));
  EXPECT_EQ(planned.cost, model.Cost(planned.placement));
  EXPECT_EQ(planned.alpha, tight);
}

TEST(PlanPlacementTest, PicksLowestMaxCostWithinTheUtilizationBand) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(graph, cluster, TaskDemands(graph, rates));
  const ResourceVector open{1.0, 1.0, 1.0};
  PlannedPlacement planned = PlanPlacement(model, open, AutoTuneOptions{}, 1000);
  EXPECT_EQ(planned.placement.Validate(graph, cluster), "");
  EXPECT_EQ(planned.cost, model.Cost(planned.placement));
  // Candidates: every plan plus the greedy incumbent.
  std::vector<ScoredPlan> candidates = EnumerateAllPlans(model);
  Placement greedy = GreedyBalancedPlacement(model);
  candidates.push_back(ScoredPlan{greedy, model.Cost(greedy)});
  double least = 1e300;
  for (const ScoredPlan& p : candidates) {
    least = std::min(least, MaxUtilization(model, p.placement));
  }
  double edge = least * (1.0 + kUtilBand) + 1e-9;
  double max = 1e300;
  for (const ScoredPlan& p : candidates) {
    if (MaxUtilization(model, p.placement) <= edge) {
      max = std::min(max, p.cost.Max());
    }
  }
  EXPECT_LE(MaxUtilization(model, planned.placement), edge);
  EXPECT_NEAR(planned.cost.Max(), max, 1e-9);
  EXPECT_FALSE(planned.search.timed_out);
}

// The NEXMark queries at the widest shapes the repository benchmark's service workload
// submits as fresh shapes, on residual clusters of that workload's 6 c5d.4xlarge workers
// with uneven free slots. The auto-tune probes and the final search stop at node budgets,
// and the wall-clock safety stops of auto-tuning lie beyond any probe, so two plans of one
// shape agree in placement, cost and node count however loaded or slow the machine. No
// final search here reaches its budget.
TEST(PlanPlacementTest, ServiceShapesDoNotDependOnTheWallClock) {
  const AutoTuneOptions tune{.timeout_s = 600.0, .probe_timeout_s = 60.0};
  const std::vector<std::vector<int>> free_slots = {{13, 4, 9, 16, 2, 7}, {4, 16, 12, 9, 16, 3}};
  for (const QuerySpec& q : BuildAllQueries()) {
    LogicalGraph g = WidestServiceShape(q.graph);
    PhysicalGraph graph = PhysicalGraph::Expand(g);
    auto demands = TaskDemands(graph, PropagateRates(g, q.source_rates));
    for (const auto& free : free_slots) {
      Cluster residual = ServiceResidual(free);
      CostModel model(graph, residual, demands);
      SCOPED_TRACE(g.name() + " on " + std::to_string(residual.total_slots()) + " slots");
      PlannedPlacement first = PlanPlacement(model, std::nullopt, tune, 32);
      PlannedPlacement again = PlanPlacement(model, std::nullopt, tune, 32);
      for (const PlannedPlacement* p : {&first, &again}) {
        EXPECT_FALSE(p->search.timed_out);
        EXPECT_FALSE(p->search.budget_hit);
      }
      EXPECT_EQ(again.alpha, first.alpha);
      EXPECT_TRUE(again.placement == first.placement);
      EXPECT_EQ(again.cost, first.cost);
      EXPECT_EQ(again.search.nodes, first.search.nodes);
    }
  }
}

// The merged Q1 + Q4 + Q6 tenants of examples/multitenant_cluster.cpp, DS2-sized to 23
// tasks on 8 m5d.2xlarge workers: the widest branch and bound of the repository. One
// thread ends it inside kFinalSearchNodeBudget at MaxUtilization 0.740, well below the
// greedy plan's 0.835, with the same plan and node count on every run.
TEST(PlanPlacementTest, MultitenantPlanEndsInsideTheNodeBudget) {
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
  const AutoTuneOptions tune{.timeout_s = 600.0, .probe_timeout_s = 60.0};
  PlannedPlacement first = PlanPlacement(model, std::nullopt, tune, 48);
  EXPECT_FALSE(first.search.budget_hit);
  EXPECT_FALSE(first.search.timed_out);
  EXPECT_EQ(first.placement.Validate(d.physical, cluster), "");
  EXPECT_LE(MaxUtilization(model, first.placement), 0.7403);
  PlannedPlacement again = PlanPlacement(model, std::nullopt, tune, 48);
  EXPECT_EQ(again.alpha, first.alpha);
  EXPECT_TRUE(again.placement == first.placement);
  EXPECT_EQ(again.cost, first.cost);
  EXPECT_EQ(again.search.nodes, first.search.nodes);
}

// DS2-sized Q3-inf at 5.4x its rates on the deploy_tight cluster (8 m5d.2xlarge workers
// with 8 slots): 38 tasks, searched by branch and bound at α = (1, 1, 1). The plan of the
// lowest MaxUtilization, 0.616717, has max cost 0.3020 and sustains 0.923 of the target
// rate in the simulator. The band pick takes 0.616802, 1.4e-4 higher, at max cost 0.2703,
// and sustains the target.
TEST(PlanPlacementTest, BandPrefersLowerMaxCost) {
  Cluster cluster(8, WorkerSpec::M5d2xlarge(8));
  QuerySpec q = BuildQueryByName("q3-inf");
  q.ScaleRates(5.4);
  DeployOptions sizing;
  sizing.policy = PlacementPolicy::kFlinkDefault;  // only the DS2-sized graph is needed
  sizing.use_ds2_sizing = true;
  Deployment d = CapsysController(cluster, sizing).Deploy(q);
  ASSERT_EQ(d.physical.num_tasks(), 38);
  CostModel model(d.physical, cluster,
                  DemandsFromMeasuredCosts(d.physical, d.costs,
                                           PropagateRates(d.graph, d.source_rates)));
  PlannedPlacement planned = PlanPlacement(model, std::nullopt, AutoTuneOptions{}, 48);
  EXPECT_EQ(planned.alpha, (ResourceVector{1.0, 1.0, 1.0}));
  EXPECT_FALSE(planned.search.budget_hit);
  EXPECT_EQ(planned.placement.Validate(d.physical, cluster), "");
  EXPECT_NEAR(MaxUtilization(model, planned.placement), 0.616802, 1e-6);
  EXPECT_NEAR(planned.cost.Max(), 0.2703, 1e-4);
  FluidSimulator sim(d.physical, cluster, planned.placement);
  for (const auto& [source, rate] : d.source_rates) {
    sim.SetSourceRate(source, rate);
  }
  EXPECT_GE(sim.RunMeasured(30, 60).throughput / q.TotalTargetRate(), 0.999);
}

// Given no α, a find-first instance auto-tunes it, and a branch and bound instance searches
// at α = (1, 1, 1): its utilization box prunes what the thresholds would.
TEST(PlanPlacementTest, AutoTunesOnlyFindFirstInstances) {
  PhysicalGraph graph = PhysicalGraph::Expand(ChainGraph({1, 3, 1}));
  Cluster cluster(2, WorkerSpec::R5dXlarge(4));
  CostModel model = MakeModel(graph, cluster);
  const ResourceVector ones{1.0, 1.0, 1.0};
  PlannedPlacement first = PlanPlacement(model, std::nullopt, AutoTuneOptions{}, 0);
  EXPECT_EQ(first.placement.Validate(graph, cluster), "");
  EXPECT_EQ(first.alpha, AutoTuneThresholds(model).alpha);
  EXPECT_NE(first.alpha, ones);
  PlannedPlacement bounded = PlanPlacement(model, std::nullopt, AutoTuneOptions{}, 1000);
  EXPECT_EQ(bounded.placement.Validate(graph, cluster), "");
  EXPECT_EQ(bounded.alpha, ones);
}

}  // namespace
}  // namespace capsys
