// Equivalence pins for the zero-allocation hot-path refactor.
//
// The incremental search state (per-operator placed totals, host lists, bound-violation
// count, suffix slot capacities) and the simulator's arena-based tick are pure
// restructurings: they must not change a single bit of any result. These tests pin
// hexfloat goldens captured from the pre-refactor implementation — search stats, best costs
// and the pareto front of the satisfying plans' costs on the three NEXMark queries
// (including the exact orbit counts 80/665/950), and full QuerySummary values — plus one
// find-first row of Fig. 10a.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/caps/cost_model.h"
#include "src/caps/greedy.h"
#include "src/caps/search.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

struct Fixture {
  explicit Fixture(const QuerySpec& query)
      : q(query),
        graph(PhysicalGraph::Expand(q.graph)),
        cluster(4, WorkerSpec::R5dXlarge(4)),
        model(graph, cluster, TaskDemands(graph, PropagateRates(q.graph, q.source_rates))) {}

  QuerySpec q;
  PhysicalGraph graph;
  Cluster cluster;
  CostModel model;
};

// Collects the satisfying plans, which changes no visit, node or pruned count.
SearchResult RunSearch(const Fixture& f, ResourceVector alpha) {
  SearchOptions options;
  options.alpha = alpha;
  options.collect_plans = true;
  CapsSearch search(f.model, options);
  return search.Run();
}

// The pareto front of the collected plans' cost vectors, kept as the search kept it before
// the incumbent bound replaced it: a plan joins unless some member is <= it in every
// dimension (so an equal cost joins once), and evicts the members it dominates.
std::vector<ResourceVector> SortedParetoCosts(const SearchResult& r) {
  std::vector<ResourceVector> pf;
  for (const auto& p : r.collected) {
    if (std::any_of(pf.begin(), pf.end(),
                    [&p](const ResourceVector& c) { return c.AllLeq(p.cost); })) {
      continue;
    }
    pf.erase(std::remove_if(pf.begin(), pf.end(),
                            [&p](const ResourceVector& c) { return p.cost.Dominates(c); }),
             pf.end());
    pf.push_back(p.cost);
  }
  std::sort(pf.begin(), pf.end(), [](const ResourceVector& a, const ResourceVector& b) {
    if (a.cpu != b.cpu) return a.cpu < b.cpu;
    if (a.io != b.io) return a.io < b.io;
    return a.net < b.net;
  });
  return pf;
}

// EXPECT_EQ on doubles is deliberate throughout: the refactor contract is bit-identity.
void ExpectCost(const ResourceVector& got, double cpu, double io, double net) {
  EXPECT_EQ(got.cpu, cpu);
  EXPECT_EQ(got.io, io);
  EXPECT_EQ(got.net, net);
}

TEST(SearchEquivalence, Q1SlidingGolden) {
  Fixture f(BuildQ1Sliding());
  SearchResult r = RunSearch(f, {1.0, 1.0, 1.0});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.stats.nodes, 872u);
  EXPECT_EQ(r.stats.leaves, 80u);  // Q1 orbit count (paper Fig. 2)
  EXPECT_EQ(r.stats.pruned, 0u);
  ExpectCost(r.best.cost, 0x1.bd5a27c833a9cp-2, 0x0p+0, 0x1.9e1e1e1e1e1e2p-2);
  auto pf = SortedParetoCosts(r);
  ASSERT_EQ(pf.size(), 3u);
  ExpectCost(pf[0], 0x1.415b304e87e1p-2, 0x1p-1, 0x1.d4b4b4b4b4b4bp-2);
  ExpectCost(pf[1], 0x1.bd5a27c833a9cp-2, 0x0p+0, 0x1.9e1e1e1e1e1e2p-2);
  ExpectCost(pf[2], 0x1.c20084432a1bap-1, 0x1p-1, 0x1.8969696969697p-2);
}

TEST(SearchEquivalence, Q2JoinGolden) {
  Fixture f(BuildQ2Join());
  SearchResult r = RunSearch(f, {1.0, 1.0, 1.0});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.stats.nodes, 3417u);
  EXPECT_EQ(r.stats.leaves, 665u);  // Q2 orbit count
  EXPECT_EQ(r.stats.pruned, 0u);
  ExpectCost(r.best.cost, 0x1.077c41df106f4p-4, 0x1.5555555555555p-2, 0x1.70586722fe288p-2);
  auto pf = SortedParetoCosts(r);
  ASSERT_EQ(pf.size(), 11u);
  ExpectCost(pf[0], 0x1.6f485bd216ed8p-5, 0x1.5555555555555p-2, 0x1.d77b654b82c34p-2);
  ExpectCost(pf[5], 0x1.c71c71c71c71dp-2, 0x0p+0, 0x1.4f31ba03aef6dp-2);
  ExpectCost(pf[10], 0x1.d31674c59d30ep-1, 0x0p+0, 0x1.8dd01d77b654cp-3);
}

TEST(SearchEquivalence, Q3InfGolden) {
  Fixture f(BuildQ3Inf());
  SearchResult r = RunSearch(f, {1.0, 1.0, 1.0});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.stats.nodes, 5051u);
  EXPECT_EQ(r.stats.leaves, 950u);  // Q3 orbit count
  EXPECT_EQ(r.stats.pruned, 0u);
  ExpectCost(r.best.cost, 0x1.7333edfcb19f2p-4, 0x0p+0, 0x1.8p-2);
  auto pf = SortedParetoCosts(r);
  ASSERT_EQ(pf.size(), 3u);
  ExpectCost(pf[0], 0x1.525e82c3bf794p-4, 0x0p+0, 0x1.81c71c71c71c7p-2);
  ExpectCost(pf[1], 0x1.7333edfcb19f2p-4, 0x0p+0, 0x1.8p-2);
  ExpectCost(pf[2], 0x1.ef035cf8c2b8dp-2, 0x0p+0, 0x1.7e6b74f032915p-2);
}

// Tight thresholds exercise the incremental bound-violation counter on the pruning path.
// They also run the lookahead cuts, which walk fewer nodes (before the cuts: 1129 nodes and
// 149 pruned here, 2789 and 30 in the Q3 case) but keep the leaves and the best cost.
TEST(SearchEquivalence, Q2TightThresholdGolden) {
  Fixture f(BuildQ2Join());
  SearchResult r = RunSearch(f, {0.5, 0.35, 0.7});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.stats.nodes, 1128u);
  EXPECT_EQ(r.stats.leaves, 178u);
  EXPECT_EQ(r.stats.pruned, 148u);
  ExpectCost(r.best.cost, 0x1.077c41df106f4p-4, 0x1.5555555555555p-2, 0x1.70586722fe288p-2);
  EXPECT_EQ(SortedParetoCosts(r).size(), 5u);
}

TEST(SearchEquivalence, Q3TightThresholdGolden) {
  Fixture f(BuildQ3Inf());
  SearchResult r = RunSearch(f, {0.5, 0.5, 0.8});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.stats.nodes, 2766u);
  EXPECT_EQ(r.stats.leaves, 524u);
  EXPECT_EQ(r.stats.pruned, 18u);
  ExpectCost(r.best.cost, 0x1.7333edfcb19f2p-4, 0x0p+0, 0x1.8p-2);
}

// Fig. 10a at its largest size under its tightest thresholds: Q2-join scaled to 256 tasks
// on 64 workers with 4 slots, α1, stopping at the first satisfying plan. The walk is
// deterministic, so its node and leaf counts and its cost are pinned like the goldens above.
TEST(SearchEquivalence, Fig10aFindFirstGolden) {
  QuerySpec q = BuildScaledQ2Join(256);
  PhysicalGraph graph = PhysicalGraph::Expand(q.graph);
  Cluster cluster(64, WorkerSpec::R5dXlarge(4));
  CostModel model(graph, cluster, TaskDemands(graph, PropagateRates(q.graph, q.source_rates)));
  SearchOptions options;
  options.alpha = ResourceVector{0.35, 0.20, 0.50};
  options.find_first = true;
  SearchResult r = CapsSearch(model, options).Run();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.stats.nodes, 66175u);
  EXPECT_EQ(r.stats.leaves, 1u);
  EXPECT_EQ(r.stats.pruned, 949u);
  ExpectCost(r.best.cost, 0x1.35f127c25a277p-2, 0x1.93d4bb7e327e6p-4, 0x1.41b1042e7602fp-2);
}

QuerySummary RunSim(const QuerySpec& q) {
  Fixture f(q);
  FluidSimulator sim(f.graph, f.cluster, GreedyBalancedPlacement(f.model));
  sim.SetAllSourceRates(q.TotalTargetRate());
  return sim.RunMeasured(30, 60);
}

void ExpectSummary(const QuerySummary& s, double throughput, double bp, double latency,
                   double sink, double ucpu, double uio, double unet) {
  EXPECT_EQ(s.throughput, throughput);
  EXPECT_EQ(s.backpressure, bp);
  EXPECT_EQ(s.latency_s, latency);
  EXPECT_EQ(s.sink_rate, sink);
  EXPECT_EQ(s.max_worker_utilization.cpu, ucpu);
  EXPECT_EQ(s.max_worker_utilization.io, uio);
  EXPECT_EQ(s.max_worker_utilization.net, unet);
}

TEST(SimulatorEquivalence, Q1SummaryGolden) {
  ExpectSummary(RunSim(BuildQ1Sliding()), 0x1.b58p+13, 0x0p+0, 0x1.8e56041893742p-3,
                0x1.3b00000000001p+9, 0x1.6666666666664p-3, 0x1.32c8590b21641p-1,
                0x1.e4712e40852bep-11);
}

TEST(SimulatorEquivalence, Q2SummaryGolden) {
  ExpectSummary(RunSim(BuildQ2Join()), 0x1.388p+17, 0x1.1745d1745d176p-2,
                0x1.d0a3d70a3d702p-2, 0x1.c52p+16, 0x1.f33333333333cp-2,
                0x1.1c0c7751798bap-2, 0x1.cd5f99c38b042p-7);
}

TEST(SimulatorEquivalence, Q3SummaryGolden) {
  ExpectSummary(RunSim(BuildQ3Inf()), 0x1.9000000000001p+10, 0x0p+0, 0x1.1eb851eb851e6p-2,
                0x1.68p+10, 0x1.72b020c49ba5fp-2, 0x0p+0, 0x1.fff79c842fa4cp-5);
}

// The per-task source-rate precomputation must not weaken the API contract: setting a rate
// on a non-source operator still fails loudly.
TEST(SimulatorEquivalence, SetSourceRateOnNonSourceDies) {
  Fixture f(BuildQ1Sliding());
  FluidSimulator sim(f.graph, f.cluster, GreedyBalancedPlacement(f.model));
  OperatorId non_source = kInvalidId;
  for (const auto& op : f.q.graph.operators()) {
    if (op.kind != OperatorKind::kSource) {
      non_source = op.id;
      break;
    }
  }
  ASSERT_NE(non_source, kInvalidId);
  EXPECT_DEATH(sim.SetSourceRate(non_source, 1000.0), "not a source operator");
}

}  // namespace
}  // namespace capsys
