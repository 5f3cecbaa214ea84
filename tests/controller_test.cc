// Tests for the controller layer: DS2 scaling, cost profiling, deployment policies, and the
// threshold auto-tuner / greedy placement helpers.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/caps/auto_tuner.h"
#include "src/caps/greedy.h"
#include "src/caps/plan.h"
#include "src/controller/deployment.h"
#include "src/controller/ds2.h"
#include "src/controller/profiler.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

// --- DS2 -------------------------------------------------------------------------------------

TEST(Ds2Test, SizesOperatorsToCeilOfRateRatio) {
  QuerySpec q = BuildQ1Sliding();
  std::vector<Ds2Observation> obs(4);
  obs[0].true_rate_per_task = 10000;  // source: 14000 target -> p=2
  obs[1].true_rate_per_task = 5000;   // map: in 14000 -> p=3
  obs[2].true_rate_per_task = 2000;   // window: in 12600 -> p=7
  obs[3].true_rate_per_task = 100000; // sink: in 630 -> p=1
  Ds2Decision d = Ds2Scale(q.graph, q.source_rates, obs);
  EXPECT_EQ(d.parallelism, (std::vector<int>{2, 3, 7, 1}));
  EXPECT_TRUE(d.changed);
}

TEST(Ds2Test, UsesObservedSelectivityOverDeclared) {
  QuerySpec q = BuildQ1Sliding();
  std::vector<Ds2Observation> obs(4);
  for (auto& o : obs) {
    o.true_rate_per_task = 10000;
  }
  // Map observed selectivity 0.5 instead of the declared 0.9 -> window input halves.
  obs[1].observed_input_rate = 1000;
  obs[1].observed_output_rate = 500;
  Ds2Decision d = Ds2Scale(q.graph, q.source_rates, obs);
  // window in = 14000 * 0.5 = 7000 -> p=1 at rate 10000.
  EXPECT_EQ(d.parallelism[2], 1);
}

TEST(Ds2Test, NoChangeWhenCurrentParallelismOptimal) {
  QuerySpec q = BuildQ1Sliding();
  q.graph.SetParallelism({2, 2, 2, 1});
  std::vector<Ds2Observation> obs(4);
  obs[0].true_rate_per_task = 7000;   // 14000/7000 = 2
  obs[1].true_rate_per_task = 7000;   // 14000/7000 = 2
  obs[2].true_rate_per_task = 6300;   // 12600/6300 = 2
  obs[3].true_rate_per_task = 1000;   // 630/1000 -> 1
  Ds2Decision d = Ds2Scale(q.graph, q.source_rates, obs);
  EXPECT_FALSE(d.changed);
}

TEST(Ds2Test, ClampsToBounds) {
  QuerySpec q = BuildQ1Sliding();
  std::vector<Ds2Observation> obs(4);
  for (auto& o : obs) {
    o.true_rate_per_task = 1.0;  // would need absurd parallelism
  }
  Ds2Decision d = Ds2Scale(q.graph, q.source_rates, obs, /*max_parallelism=*/6);
  for (int p : d.parallelism) {
    EXPECT_LE(p, 6);
    EXPECT_GE(p, 1);
  }
}

TEST(Ds2Test, ZeroTrueRateKeepsCurrentParallelism) {
  QuerySpec q = BuildQ1Sliding();
  std::vector<Ds2Observation> obs(4);  // all true rates 0 (no data)
  Ds2Decision d = Ds2Scale(q.graph, q.source_rates, obs);
  EXPECT_FALSE(d.changed);
}

// --- Profiler ---------------------------------------------------------------------------------

TEST(ProfilerTest, MeasuredCostsApproximateGroundTruth) {
  QuerySpec q = BuildQ1Sliding();
  auto costs = ProfileOperators(q.graph, q.source_rates, WorkerSpec::R5dXlarge(4));
  ASSERT_EQ(costs.size(), 4u);
  // Map: pure CPU, no GC, no state -> measurement should be close to the declared profile.
  EXPECT_NEAR(costs[1].cpu_per_record, 40e-6, 8e-6);
  EXPECT_NEAR(costs[1].selectivity, 0.9, 0.05);
  EXPECT_LT(costs[1].io_bytes_per_record, 1.0);
  // Window: io-heavy.
  EXPECT_NEAR(costs[2].io_bytes_per_record, 35000, 7000);
  EXPECT_NEAR(costs[2].selectivity, 0.05, 0.01);
}

TEST(ProfilerTest, DemandsFromMeasuredCostsScaleWithRate) {
  QuerySpec q = BuildQ1Sliding();
  auto costs = ProfileOperators(q.graph, q.source_rates, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates_lo = PropagateRates(q.graph, 7000.0);
  auto rates_hi = PropagateRates(q.graph, 14000.0);
  auto d_lo = DemandsFromMeasuredCosts(physical, costs, rates_lo);
  auto d_hi = DemandsFromMeasuredCosts(physical, costs, rates_hi);
  for (size_t i = 0; i < d_lo.size(); ++i) {
    EXPECT_NEAR(d_hi[i].cpu, 2.0 * d_lo[i].cpu, 1e-9);
    EXPECT_NEAR(d_hi[i].io, 2.0 * d_lo[i].io, 1e-6);
  }
}

// --- Auto-tuner --------------------------------------------------------------------------------

TEST(AutoTunerTest, ResultIsFeasible) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  AutoTuneResult r = AutoTuneThresholds(model);
  ASSERT_TRUE(r.feasible);
  // The returned alpha must admit at least one plan.
  SearchOptions options;
  options.alpha = r.alpha;
  options.find_first = true;
  EXPECT_TRUE(CapsSearch(model, options).Run().found);
}

TEST(AutoTunerTest, ResultAdmitsNearOptimalPlans) {
  QuerySpec q = BuildQ3Inf();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  AutoTuneResult tuned = AutoTuneThresholds(model);
  ASSERT_TRUE(tuned.feasible);
  SearchOptions options;
  options.alpha = tuned.alpha;
  SearchResult constrained = CapsSearch(model, options).Run();
  SearchResult full = CapsSearch(model, SearchOptions{}).Run();
  ASSERT_TRUE(constrained.found);
  // The constrained optimum is within a modest factor of the global optimum.
  EXPECT_LE(constrained.best.cost.Max(), full.best.cost.Max() * 2.0 + 0.1);
}

TEST(AutoTunerTest, HonorsTimeout) {
  QuerySpec q = BuildQ2Join();
  q.graph.SetParallelism({4, 4, 8, 8, 24});
  Cluster cluster(16, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  AutoTuneOptions options;
  options.timeout_s = 0.05;
  options.probe_timeout_s = 0.01;
  AutoTuneResult r = AutoTuneThresholds(model, options);
  EXPECT_LT(r.elapsed_s, 2.0);
}

// The cost model of `query` at `scale` times its source rates, sized by DS2, on the
// deploy_tight cluster: 8 m5d.2xlarge workers with 8 slots. The model refers to the graph
// of `*deployment` and to `cluster`, which must outlive it.
std::unique_ptr<CostModel> DeployTightModel(const char* query, double scale,
                                            const Cluster& cluster, Deployment* deployment) {
  QuerySpec q = BuildQueryByName(query);
  q.ScaleRates(scale);
  DeployOptions options;
  options.policy = PlacementPolicy::kFlinkDefault;  // only the DS2-sized graph is needed
  options.use_ds2_sizing = true;
  *deployment = CapsysController(cluster, options).Deploy(q);
  return std::make_unique<CostModel>(
      deployment->physical, cluster,
      DemandsFromMeasuredCosts(deployment->physical, deployment->costs,
                               PropagateRates(deployment->graph, deployment->source_rates)));
}

// The probe spans of one traced tune, with the number carrying each probe attribute.
struct ProbeSpans {
  int probes = 0;
  int feasible = 0;
  int timed_out = 0;
  int budget_hit = 0;
};

AutoTuneResult TracedTune(const CostModel& model, const AutoTuneOptions& options,
                          ProbeSpans* spans) {
  Tracer::Global().Enable();
  Tracer::Global().Reset();
  AutoTuneResult r = AutoTuneThresholds(model, options);
  auto records = Tracer::Global().Snapshot();
  Tracer::Global().Disable();
  Tracer::Global().Reset();
  for (const SpanRecord& s : records) {
    if (s.name != "caps.autotune.probe") {
      continue;
    }
    ++spans->probes;
    for (const auto& [key, value] : s.attrs) {
      spans->feasible += key == "feasible" && value == "true" ? 1 : 0;
      spans->timed_out += key == "timed_out" && value == "true" ? 1 : 0;
      spans->budget_hit += key == "budget_hit" && value == "true" ? 1 : 0;
    }
  }
  return r;
}

// With no probe time budget every bounded probe is answered by the wall clock, so tuning
// relaxes to all-ones and makes its last probe with the whole remaining budget. That probe,
// too, is traced and counted. Probes that walk their whole node budget are counted apart
// from those: on the DS2-sized Q2 at 4.8x some network probes give up near the minimum.
TEST(AutoTunerTest, EveryProbeIsTracedAndCounted) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  CostModel model(physical, cluster,
                  TaskDemands(physical, PropagateRates(q.graph, q.source_rates)));
  ProbeSpans clocked;
  AutoTuneResult r = TracedTune(model, {.timeout_s = 60.0, .probe_timeout_s = 0.0}, &clocked);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.alpha.Max(), 1.0);
  EXPECT_EQ(r.probes_timed_out, r.iterations - 1);
  EXPECT_EQ(r.probes_over_budget, 0);
  EXPECT_GT(r.nodes, 0u);
  EXPECT_EQ(clocked.probes, r.iterations);
  EXPECT_EQ(clocked.feasible, 1);
  EXPECT_EQ(clocked.timed_out, r.probes_timed_out);
  EXPECT_EQ(clocked.budget_hit, 0);

  Cluster tight(8, WorkerSpec::M5d2xlarge(8));
  Deployment deployment;
  std::unique_ptr<CostModel> q2 = DeployTightModel("q2-join", 4.8, tight, &deployment);
  ProbeSpans budgeted;
  r = TracedTune(*q2, {.timeout_s = 600.0, .probe_timeout_s = 60.0}, &budgeted);
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.probes_over_budget, 0);
  EXPECT_EQ(r.probes_timed_out, 0);
  EXPECT_EQ(budgeted.probes, r.iterations);
  EXPECT_EQ(budgeted.budget_hit, r.probes_over_budget);
  EXPECT_EQ(budgeted.timed_out, 0);
  EXPECT_NE(r.ToString().find(" probes_over_budget=" + std::to_string(r.probes_over_budget)),
            std::string::npos);
}

// Auto-tune of the DS2-sized Q2 and Q3 on the deploy_tight cluster, with wall-clock budgets
// no probe reaches. α and the probe count are pinned to the values of the witness-bracketed
// phase 1 with node-budgeted probes; the node totals of the search without lookahead cuts,
// witness brackets and node budgets are the `nodes_before` column, and the tune must at
// least halve them.
struct TuneGolden {
  const char* query;
  double scale;
  ResourceVector alpha;
  int iterations;
  uint64_t nodes_before;
};

void PrintTo(const TuneGolden& g, std::ostream* os) { *os << g.query << " @ " << g.scale; }

class AutoTuneGoldenTest : public ::testing::TestWithParam<TuneGolden> {
 protected:
  void SetUp() override {
    model_ = DeployTightModel(GetParam().query, GetParam().scale, cluster_, &deployment_);
  }

  Cluster cluster_{8, WorkerSpec::M5d2xlarge(8)};
  Deployment deployment_;
  std::unique_ptr<CostModel> model_;
  AutoTuneOptions tune_{.timeout_s = 600.0, .probe_timeout_s = 60.0};
};

TEST_P(AutoTuneGoldenTest, SameAlphaFromFewerNodes) {
  const TuneGolden& g = GetParam();
  AutoTuneResult r = AutoTuneThresholds(*model_, tune_);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.probes_timed_out, 0);
  EXPECT_EQ(r.alpha.cpu, g.alpha.cpu);
  EXPECT_EQ(r.alpha.io, g.alpha.io);
  EXPECT_EQ(r.alpha.net, g.alpha.net);
  EXPECT_EQ(r.iterations, g.iterations);
  EXPECT_LE(r.nodes, g.nodes_before / 2);
}

// Probes run on one thread whatever the final search gets: a parallel find-first stops at
// whichever leaf a thread reaches first, so its witness, and with it α, would depend on
// thread timing.
TEST_P(AutoTuneGoldenTest, AlphaDoesNotDependOnSearchThreads) {
  const TuneGolden& g = GetParam();
  for (int threads : {1, 2, 4}) {
    PlannedPlacement planned = PlanPlacement(*model_, std::nullopt, tune_, threads,
                                             /*find_first_above_tasks=*/0);
    EXPECT_EQ(planned.alpha.cpu, g.alpha.cpu) << threads << " threads";
    EXPECT_EQ(planned.alpha.io, g.alpha.io) << threads << " threads";
    EXPECT_EQ(planned.alpha.net, g.alpha.net) << threads << " threads";
  }
}

// Every probe stops at its node budget long before the default wall-clock budgets, so the
// defaults give the α and probe count that budgets of 600 s give, bit for bit, even on a
// sanitizer build.
TEST_P(AutoTuneGoldenTest, AlphaDoesNotDependOnTheWallClock) {
  const TuneGolden& g = GetParam();
  AutoTuneResult defaults = AutoTuneThresholds(*model_, AutoTuneOptions{});
  AutoTuneResult roomy =
      AutoTuneThresholds(*model_, {.timeout_s = 600.0, .probe_timeout_s = 600.0});
  for (const AutoTuneResult& r : {defaults, roomy}) {
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.probes_timed_out, 0);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.alpha.cpu, g.alpha.cpu);
    EXPECT_EQ(r.alpha.io, g.alpha.io);
    EXPECT_EQ(r.alpha.net, g.alpha.net);
    EXPECT_EQ(r.iterations, g.iterations);
  }
  EXPECT_EQ(defaults.nodes, roomy.nodes);
  EXPECT_EQ(defaults.probes_over_budget, roomy.probes_over_budget);
}

// Each phase-1 minimum is the cost of a plan a probe found, so a probe at exactly that
// threshold finds a plan again: the LoadBound / CostOfLoad round trip loses nothing.
TEST_P(AutoTuneGoldenTest, PhaseOneMinimaArePlansThatExist) {
  AutoTuneResult r = AutoTuneThresholds(*model_, tune_);
  ASSERT_TRUE(r.feasible);
  for (Resource res : kAllResources) {
    double minimum = r.phase1_alpha[res];
    EXPECT_GE(minimum, 0.0) << ResourceName(res);
    EXPECT_LE(minimum, 1.0) << ResourceName(res);
    SearchOptions probe;
    probe.alpha[res] = minimum;
    probe.find_first = true;
    EXPECT_TRUE(CapsSearch(*model_, probe).Run().found) << ResourceName(res);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeployTight, AutoTuneGoldenTest,
    ::testing::Values(
        TuneGolden{"q2-join", 4.8,
                   {0x1.53c99abca62a4p-3, 0x1.0c83fb85d03bcp-2, 0x1.4564effb7dfd1p-2}, 24,
                   1626836},
        TuneGolden{"q2-join", 5.3,
                   {0x1.7becb3d740d67p-4, 0x1.fd4b8b9232198p-4, 0x1.aa567aaffc141p-3}, 22,
                   6573944},
        TuneGolden{"q3-inf", 4.8,
                   {0x1.2dcc93ac1c571p-3, 0x1.eb851fcb32aap-6, 0x1.4f748c89920b1p-2}, 20,
                   2869879},
        TuneGolden{"q3-inf", 5.3,
                   {0x1.ccc6ef360bf8p-4, 0x1.12e0be826d695p-30, 0x1.152fab528106fp-2}, 18,
                   2888173}));

// --- Greedy ------------------------------------------------------------------------------------

TEST(GreedyTest, ProducesValidPlacement) {
  QuerySpec q = BuildQ5Aggregate();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  Placement plan = GreedyBalancedPlacement(model);
  EXPECT_EQ(plan.Validate(physical, cluster), "");
}

TEST(GreedyTest, NearBalancedForHeavyOperators) {
  QuerySpec q = BuildQ1Sliding();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  Placement plan = GreedyBalancedPlacement(model);
  // The 8 window tasks must be spread 2 per worker.
  EXPECT_EQ(plan.ColocationDegree(physical, cluster, 2), 2);
}

TEST(GreedyTest, CostWithinRangeOfExhaustiveOptimum) {
  QuerySpec q = BuildQ3Inf();
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  PhysicalGraph physical = PhysicalGraph::Expand(q.graph);
  auto rates = PropagateRates(q.graph, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  Placement greedy = GreedyBalancedPlacement(model);
  SearchResult best = CapsSearch(model, SearchOptions{}).Run();
  ASSERT_TRUE(best.found);
  // Greedy is not optimal but must be in the same ballpark on the dominant dimension.
  EXPECT_LE(model.Cost(greedy).Max(), best.best.cost.Max() * 3.0 + 0.15);
}

// --- Deployment ---------------------------------------------------------------------------------

TEST(DeploymentTest, CapsDeploymentIsValidAndBeatsBaselinesOnCost) {
  Cluster cluster(4, WorkerSpec::M5d2xlarge(8));
  QuerySpec q = BuildQ1Sliding();
  q.ScaleRates(2.0);

  DeployOptions caps_options;
  caps_options.policy = PlacementPolicy::kCaps;
  caps_options.use_ds2_sizing = true;
  CapsysController caps(cluster, caps_options);
  Deployment d = caps.Deploy(q);
  EXPECT_EQ(d.placement.Validate(d.physical, cluster), "");
  EXPECT_GT(d.physical.num_tasks(), 0);
  EXPECT_GE(d.decision_time_s, 0.0);

  auto op_rates = PropagateRates(d.graph, d.source_rates);
  auto demands = DemandsFromMeasuredCosts(d.physical, d.costs, op_rates);
  CostModel model(d.physical, cluster, demands);
  ResourceVector caps_cost = model.Cost(d.placement);

  for (PlacementPolicy policy :
       {PlacementPolicy::kFlinkDefault, PlacementPolicy::kFlinkEvenly}) {
    DeployOptions options = caps_options;
    options.policy = policy;
    CapsysController controller(cluster, options);
    Placement p = controller.Place(d.physical, d.source_rates, demands, nullptr);
    EXPECT_EQ(p.Validate(d.physical, cluster), "");
    ResourceVector cost = model.Cost(p);
    EXPECT_LE(caps_cost.Max(), cost.Max() + 1e-9)
        << "CAPS cost should not exceed " << PolicyName(policy);
  }
}

TEST(DeploymentTest, Ds2SizingFitsCluster) {
  Cluster cluster(4, WorkerSpec::M5d2xlarge(8));
  for (QuerySpec& q : BuildAllQueries()) {
    q.ScaleRates(2.0);
    DeployOptions options;
    options.use_ds2_sizing = true;
    CapsysController controller(cluster, options);
    Deployment d = controller.Deploy(q);
    EXPECT_LE(d.physical.num_tasks(), cluster.total_slots()) << q.graph.name();
    EXPECT_EQ(d.placement.Validate(d.physical, cluster), "") << q.graph.name();
  }
}

// DS2 sizes Q1 wider than a 2x2 cluster; the deployment down-scales to fit instead of
// failing the slot check, and says so with a ScaleDecision event.
TEST(DeploymentTest, Ds2SizingWiderThanClusterIsDownScaled) {
  Cluster cluster(2, WorkerSpec::R5dXlarge(2));
  QuerySpec q = BuildQ1Sliding();
  DeployOptions options;
  options.use_ds2_sizing = true;
  EventLog& log = EventLog::Global();
  log.Reset();
  log.Enable();
  Deployment d = CapsysController(cluster, options).Deploy(q);
  log.Disable();
  EXPECT_LE(d.physical.num_tasks(), 4);
  EXPECT_EQ(d.placement.Validate(d.physical, cluster), "");
  bool fitted = false;
  for (const Event& e : log.Snapshot()) {
    fitted = fitted || (e.type == EventType::kScaleDecision &&
                        e.ToJson().find("\"fit_cluster\"") != std::string::npos);
  }
  log.Reset();
  EXPECT_TRUE(fitted);
}

TEST(DeploymentTest, BaselinePoliciesVaryWithSeed) {
  Cluster cluster(4, WorkerSpec::M5d2xlarge(8));
  QuerySpec q = BuildQ1Sliding();
  q.ScaleRates(2.0);
  DeployOptions options;
  options.policy = PlacementPolicy::kFlinkEvenly;
  options.use_ds2_sizing = true;
  options.seed = 1;
  Deployment d1 = CapsysController(cluster, options).Deploy(q);
  options.seed = 2;
  Deployment d2 = CapsysController(cluster, options).Deploy(q);
  EXPECT_FALSE(d1.placement == d2.placement);
}

TEST(DeploymentTest, StandaloneTaskRateUsesBindingResource) {
  MeasuredCost cost;
  cost.cpu_per_record = 1e-4;       // cap 10k
  cost.io_bytes_per_record = 46000;  // cap 230e6/46000 = 5k  <- binding
  cost.out_bytes_per_record = 10;
  cost.selectivity = 1.0;
  double rate = StandaloneTaskRate(cost, WorkerSpec::R5dXlarge(4));
  EXPECT_NEAR(rate, 5000.0, 1.0);
}

TEST(DeploymentTest, PolicyNames) {
  EXPECT_STREQ(PolicyName(PlacementPolicy::kCaps), "capsys");
  EXPECT_STREQ(PolicyName(PlacementPolicy::kFlinkDefault), "default");
  EXPECT_STREQ(PolicyName(PlacementPolicy::kFlinkEvenly), "evenly");
}

}  // namespace
}  // namespace capsys
