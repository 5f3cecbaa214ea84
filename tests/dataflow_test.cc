// Tests for src/dataflow: logical graphs, physical expansion, rate propagation, and
// placement plans.
#include <gtest/gtest.h>

#include <set>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/dataflow/logical_graph.h"
#include "src/dataflow/physical_graph.h"
#include "src/dataflow/placement.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"

namespace capsys {
namespace {

OperatorProfile SimpleProfile(double selectivity = 1.0) {
  OperatorProfile p;
  p.cpu_per_record = 1e-5;
  p.out_bytes_per_record = 100;
  p.selectivity = selectivity;
  return p;
}

LogicalGraph Diamond() {
  // src -> {a, b} -> sink
  LogicalGraph g("diamond");
  OperatorId src = g.AddOperator("src", OperatorKind::kSource, SimpleProfile(), 2);
  OperatorId a = g.AddOperator("a", OperatorKind::kMap, SimpleProfile(0.5), 3);
  OperatorId b = g.AddOperator("b", OperatorKind::kFilter, SimpleProfile(0.25), 2);
  OperatorId sink = g.AddOperator("sink", OperatorKind::kSink, SimpleProfile(), 1);
  g.AddEdge(src, a);
  g.AddEdge(src, b);
  g.AddEdge(a, sink);
  g.AddEdge(b, sink);
  return g;
}

// --- LogicalGraph ----------------------------------------------------------------------------

TEST(LogicalGraphTest, TopologicalOrderRespectsEdges) {
  LogicalGraph g = Diamond();
  auto order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  std::vector<int> pos(4);
  for (size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (const auto& e : g.edges()) {
    EXPECT_LT(pos[static_cast<size_t>(e.from)], pos[static_cast<size_t>(e.to)]);
  }
}

TEST(LogicalGraphTest, SourcesAndSinks) {
  LogicalGraph g = Diamond();
  EXPECT_EQ(g.SourceIds(), std::vector<OperatorId>{0});
  EXPECT_EQ(g.SinkIds(), std::vector<OperatorId>{3});
}

TEST(LogicalGraphTest, UpstreamsDownstreams) {
  LogicalGraph g = Diamond();
  EXPECT_EQ(g.Downstreams(0).size(), 2u);
  EXPECT_EQ(g.Upstreams(3).size(), 2u);
  EXPECT_EQ(g.Upstreams(0).size(), 0u);
}

TEST(LogicalGraphTest, ValidateDetectsCycle) {
  LogicalGraph g("cyclic");
  OperatorId a = g.AddOperator("a", OperatorKind::kMap, SimpleProfile(), 1);
  OperatorId b = g.AddOperator("b", OperatorKind::kMap, SimpleProfile(), 1);
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  EXPECT_NE(g.Validate(), "");
}

TEST(LogicalGraphTest, ValidateDetectsForwardParallelismMismatch) {
  LogicalGraph g("fwd");
  OperatorId a = g.AddOperator("a", OperatorKind::kSource, SimpleProfile(), 2);
  OperatorId b = g.AddOperator("b", OperatorKind::kMap, SimpleProfile(), 3);
  g.AddEdge(a, b, PartitionScheme::kForward);
  EXPECT_NE(g.Validate(), "");
  g.SetParallelism(b, 2);
  EXPECT_EQ(g.Validate(), "");
}

TEST(LogicalGraphTest, ValidateEmptyGraph) {
  LogicalGraph g("empty");
  EXPECT_NE(g.Validate(), "");
}

TEST(LogicalGraphTest, TotalParallelism) {
  LogicalGraph g = Diamond();
  EXPECT_EQ(g.total_parallelism(), 8);
  g.SetParallelism(0, 5);
  EXPECT_EQ(g.total_parallelism(), 11);
}

TEST(LogicalGraphTest, SetParallelismVector) {
  LogicalGraph g = Diamond();
  g.SetParallelism({1, 1, 1, 1});
  EXPECT_EQ(g.total_parallelism(), 4);
  EXPECT_EQ(g.Parallelism(), (std::vector<int>{1, 1, 1, 1}));
}

TEST(LogicalGraphTest, FitParallelismShrinksWidestFirst) {
  struct Case {
    const char* name;
    std::vector<int> parallelism;  // a chain op0 -> op1 -> ...
    int forward_after = -1;        // the edge op[i] -> op[i+1] is forward, else hash
    int free_slots;
    std::vector<int> want;
    bool fits;
  };
  const std::vector<Case> cases = {
      {"already fits", {1, 4, 2, 1}, -1, 8, {1, 4, 2, 1}, true},
      {"widest first", {1, 4, 2, 1}, -1, 6, {1, 2, 2, 1}, true},
      {"lowest id on ties", {1, 3, 3, 1}, -1, 7, {1, 2, 3, 1}, true},
      {"forward pair shrinks together", {1, 3, 3, 1}, 1, 6, {1, 2, 2, 1}, true},
      {"forward pair is one step", {1, 3, 3, 2}, 1, 8, {1, 2, 2, 2}, true},
      {"floor fits exactly", {3, 3}, -1, 2, {1, 1}, true},
      {"floor does not fit", {2, 2, 2}, -1, 2, {1, 1, 1}, false},
  };
  for (const Case& c : cases) {
    LogicalGraph g("fit");
    for (size_t i = 0; i < c.parallelism.size(); ++i) {
      g.AddOperator("op" + std::to_string(i), i == 0 ? OperatorKind::kSource : OperatorKind::kMap,
                    SimpleProfile(), c.parallelism[i]);
      if (i > 0) {
        g.AddEdge(static_cast<OperatorId>(i - 1), static_cast<OperatorId>(i),
                  static_cast<int>(i) - 1 == c.forward_after ? PartitionScheme::kForward
                                                              : PartitionScheme::kHash);
      }
    }
    ASSERT_EQ(g.Validate(), "") << c.name;
    EXPECT_EQ(FitParallelism(g, c.free_slots), c.fits) << c.name;
    EXPECT_EQ(g.Parallelism(), c.want) << c.name;
    EXPECT_EQ(g.Validate(), "") << c.name;  // forward endpoints stay equal
  }
}

TEST(LogicalGraphTest, MergeProducesDisjointUnion) {
  LogicalGraph a = Diamond();
  LogicalGraph b = Diamond();
  size_t a_edges = a.edges().size();
  OperatorId offset = a.Merge(b);
  EXPECT_EQ(offset, 4);
  EXPECT_EQ(a.num_operators(), 8);
  EXPECT_EQ(a.edges().size(), a_edges * 2);
  EXPECT_EQ(a.Validate(), "");
  // Merged copy's edges reference the offset ids.
  EXPECT_EQ(a.SourceIds().size(), 2u);
}

// --- PhysicalGraph ---------------------------------------------------------------------------

TEST(PhysicalGraphTest, TaskCountsMatchParallelism) {
  LogicalGraph g = Diamond();
  PhysicalGraph p = PhysicalGraph::Expand(g);
  EXPECT_EQ(p.num_tasks(), 8);
  for (const auto& op : g.operators()) {
    EXPECT_EQ(static_cast<int>(p.TasksOf(op.id).size()), op.parallelism);
  }
}

TEST(PhysicalGraphTest, HashEdgesAreAllToAll) {
  LogicalGraph g = Diamond();
  PhysicalGraph p = PhysicalGraph::Expand(g);
  // src(2) -> a(3): 6, src(2) -> b(2): 4, a(3) -> sink(1): 3, b(2) -> sink(1): 2.
  EXPECT_EQ(p.num_channels(), 6 + 4 + 3 + 2);
}

TEST(PhysicalGraphTest, ForwardEdgesAreOneToOne) {
  LogicalGraph g("fwd");
  OperatorId a = g.AddOperator("a", OperatorKind::kSource, SimpleProfile(), 3);
  OperatorId b = g.AddOperator("b", OperatorKind::kMap, SimpleProfile(), 3);
  g.AddEdge(a, b, PartitionScheme::kForward);
  PhysicalGraph p = PhysicalGraph::Expand(g);
  EXPECT_EQ(p.num_channels(), 3);
  for (const auto& c : p.channels()) {
    EXPECT_EQ(p.task(c.from).index, p.task(c.to).index);
  }
}

TEST(PhysicalGraphTest, DownstreamChannelsConsistent) {
  LogicalGraph g = Diamond();
  PhysicalGraph p = PhysicalGraph::Expand(g);
  size_t total = 0;
  for (const auto& t : p.tasks()) {
    for (ChannelId c : p.DownstreamChannels(t.id)) {
      EXPECT_EQ(p.channel(c).from, t.id);
    }
    for (ChannelId c : p.UpstreamChannels(t.id)) {
      EXPECT_EQ(p.channel(c).to, t.id);
    }
    total += p.DownstreamChannels(t.id).size();
  }
  EXPECT_EQ(total, static_cast<size_t>(p.num_channels()));
}

TEST(PhysicalGraphTest, SinkTasksHaveNoDownstream) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph p = PhysicalGraph::Expand(q.graph);
  for (TaskId t : p.TasksOf(3)) {  // sink
    EXPECT_TRUE(p.DownstreamChannels(t).empty());
  }
}

// Property: expansion of random valid graphs preserves structural invariants.
TEST(PhysicalGraphTest, RandomGraphExpansionInvariants) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    LogicalGraph g("rand");
    int ops = static_cast<int>(rng.UniformInt(2, 6));
    for (int i = 0; i < ops; ++i) {
      g.AddOperator(
          "op" + std::to_string(i),
          i == 0 ? OperatorKind::kSource : OperatorKind::kMap, SimpleProfile(),
          static_cast<int>(rng.UniformInt(1, 4)));
    }
    // Random forward-only DAG edges i -> j (i < j).
    for (int i = 0; i < ops; ++i) {
      for (int j = i + 1; j < ops; ++j) {
        if (rng.Bernoulli(0.4)) {
          g.AddEdge(i, j, PartitionScheme::kHash);
        }
      }
    }
    if (!g.Validate().empty()) {
      continue;
    }
    PhysicalGraph p = PhysicalGraph::Expand(g);
    EXPECT_EQ(p.num_tasks(), g.total_parallelism());
    int expected_channels = 0;
    for (const auto& e : g.edges()) {
      expected_channels += g.op(e.from).parallelism * g.op(e.to).parallelism;
    }
    EXPECT_EQ(p.num_channels(), expected_channels);
  }
}

// --- Rates -----------------------------------------------------------------------------------

TEST(RatesTest, LinearChainPropagation) {
  LogicalGraph g("chain");
  OperatorId a = g.AddOperator("a", OperatorKind::kSource, SimpleProfile(1.0), 1);
  OperatorId b = g.AddOperator("b", OperatorKind::kMap, SimpleProfile(0.5), 2);
  OperatorId c = g.AddOperator("c", OperatorKind::kSink, SimpleProfile(2.0), 1);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  auto rates = PropagateRates(g, 1000.0);
  EXPECT_EQ(rates[static_cast<size_t>(a)].output_rate, 1000.0);
  EXPECT_EQ(rates[static_cast<size_t>(b)].input_rate, 1000.0);
  EXPECT_EQ(rates[static_cast<size_t>(b)].output_rate, 500.0);
  EXPECT_EQ(rates[static_cast<size_t>(c)].input_rate, 500.0);
  EXPECT_EQ(rates[static_cast<size_t>(c)].output_rate, 1000.0);
}

TEST(RatesTest, MultiSourceFanIn) {
  LogicalGraph g = Diamond();
  auto rates = PropagateRates(g, 1000.0);
  // sink input = a.out + b.out = 1000*0.5 + 1000*0.25.
  EXPECT_EQ(rates[3].input_rate, 750.0);
}

TEST(RatesTest, PerSourceRatesMap) {
  QuerySpec q = BuildQ2Join();
  auto rates = PropagateRates(q.graph, q.source_rates);
  EXPECT_EQ(rates[0].input_rate, 30000.0);
  EXPECT_EQ(rates[1].input_rate, 80000.0);
  // join input = map_p.out + map_a.out = 30000*1.0 + 80000*0.6.
  EXPECT_NEAR(rates[4].input_rate, 30000.0 + 48000.0, 1e-6);
}

TEST(RatesTest, TaskDemandsSplitEvenly) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph p = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  auto demands = TaskDemands(p, rates);
  // All tasks of one operator share identical demands.
  for (const auto& op : q.graph.operators()) {
    const auto& tasks = p.TasksOf(op.id);
    for (TaskId t : tasks) {
      EXPECT_EQ(demands[static_cast<size_t>(t)], demands[static_cast<size_t>(tasks[0])]);
    }
  }
  // Window: input 14000*0.9 = 12600 over 8 tasks.
  double per_task_in = 12600.0 / 8;
  EXPECT_NEAR(demands[static_cast<size_t>(p.TasksOf(2)[0])].cpu, per_task_in * 120e-6, 1e-9);
  EXPECT_NEAR(demands[static_cast<size_t>(p.TasksOf(2)[0])].io, per_task_in * 35000, 1e-6);
}

TEST(RatesTest, ZeroRateSourceYieldsZeroDemands) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph p = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, 0.0);
  auto demands = TaskDemands(p, rates);
  for (const auto& d : demands) {
    EXPECT_EQ(d.cpu, 0.0);
    EXPECT_EQ(d.io, 0.0);
    EXPECT_EQ(d.net, 0.0);
  }
}

// --- Placement -------------------------------------------------------------------------------

TEST(PlacementTest, ValidateCatchesUnassignedAndOverflow) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph p = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  Placement plan(p.num_tasks());
  EXPECT_NE(plan.Validate(p, cluster), "");  // unassigned
  for (TaskId t = 0; t < p.num_tasks(); ++t) {
    plan.Assign(t, 0);
  }
  EXPECT_NE(plan.Validate(p, cluster), "");  // 16 tasks on a 4-slot worker
  for (TaskId t = 0; t < p.num_tasks(); ++t) {
    plan.Assign(t, t % 4);
  }
  EXPECT_EQ(plan.Validate(p, cluster), "");
}

TEST(PlacementTest, RemoteFractionEndpoints) {
  LogicalGraph g("pair");
  OperatorId a = g.AddOperator("a", OperatorKind::kSource, SimpleProfile(), 1);
  OperatorId b = g.AddOperator("b", OperatorKind::kSink, SimpleProfile(), 4);
  g.AddEdge(a, b);
  PhysicalGraph p = PhysicalGraph::Expand(g);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  // All of b co-located with a: fully local.
  Placement local(std::vector<WorkerId>{0, 0, 0, 0, 0});
  EXPECT_EQ(local.RemoteFraction(p, 0), 0.0);
  // b spread: 3 of 4 channels remote.
  Placement spread(std::vector<WorkerId>{0, 0, 1, 2, 3});
  EXPECT_NEAR(spread.RemoteFraction(p, 0), 0.75, 1e-12);
  // Sink tasks have no downstream.
  EXPECT_EQ(local.RemoteFraction(p, 1), 0.0);
}

TEST(PlacementTest, ColocationDegree) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph p = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  Placement plan(p.num_tasks());
  // Put all 8 window tasks (op 2) on workers 0 and 1, 4 each; others spread.
  int w = 0;
  for (const auto& t : p.tasks()) {
    if (t.op == 2) {
      plan.Assign(t.id, t.index < 4 ? 0 : 1);
    } else {
      plan.Assign(t.id, 2 + (w++ % 2));
    }
  }
  EXPECT_EQ(plan.ColocationDegree(p, cluster, 2), 4);
  EXPECT_LE(plan.ColocationDegree(p, cluster, 1), 3);
}

TEST(PlacementTest, CanonicalKeyInvariantUnderWorkerPermutation) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph p = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  Rng rng(303);
  for (int trial = 0; trial < 20; ++trial) {
    Placement plan(p.num_tasks());
    std::vector<int> used(4, 0);
    for (TaskId t = 0; t < p.num_tasks(); ++t) {
      WorkerId w;
      do {
        w = static_cast<WorkerId>(rng.NextBounded(4));
      } while (used[static_cast<size_t>(w)] >= 4);
      plan.Assign(t, w);
      ++used[static_cast<size_t>(w)];
    }
    // Apply a random worker permutation.
    std::vector<WorkerId> perm = {0, 1, 2, 3};
    rng.Shuffle(perm);
    Placement permuted(p.num_tasks());
    for (TaskId t = 0; t < p.num_tasks(); ++t) {
      permuted.Assign(t, perm[static_cast<size_t>(plan.WorkerOf(t))]);
    }
    EXPECT_EQ(plan.CanonicalKey(p, cluster), permuted.CanonicalKey(p, cluster));
  }
}

TEST(PlacementTest, CanonicalKeyDistinguishesDifferentPlans) {
  QuerySpec q = BuildQ1Sliding();
  PhysicalGraph p = PhysicalGraph::Expand(q.graph);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  Placement a(p.num_tasks());
  Placement b(p.num_tasks());
  for (TaskId t = 0; t < p.num_tasks(); ++t) {
    a.Assign(t, t % 4);
    b.Assign(t, (t / 4) % 4);
  }
  EXPECT_NE(a.CanonicalKey(p, cluster), b.CanonicalKey(p, cluster));
}

// --- Cluster ---------------------------------------------------------------------------------

TEST(ClusterTest, TotalSlotsAndSpecs) {
  Cluster c(4, WorkerSpec::M5d2xlarge(8));
  EXPECT_EQ(c.num_workers(), 4);
  EXPECT_EQ(c.slots_per_worker(), 8);
  EXPECT_EQ(c.total_slots(), 32);
  EXPECT_EQ(c.worker(0).spec.cpu_capacity, 8.0);
}

TEST(ClusterTest, SetNetBandwidthAppliesToAll) {
  Cluster c(3, WorkerSpec::R5dXlarge(4));
  c.SetNetBandwidth(125e6);
  for (const auto& w : c.workers()) {
    EXPECT_EQ(w.spec.net_bandwidth_bps, 125e6);
  }
}

TEST(ClusterTest, InstanceTypePresetsDiffer) {
  EXPECT_LT(WorkerSpec::R5dXlarge().cpu_capacity, WorkerSpec::M5d2xlarge().cpu_capacity);
  EXPECT_LT(WorkerSpec::M5d2xlarge().cpu_capacity, WorkerSpec::C5d4xlarge().cpu_capacity);
}

}  // namespace
}  // namespace capsys
