// Tests for the variable-workload scaling experiment driver (Table 4 / Figure 9 machinery)
// and the placement-group utility.
#include <gtest/gtest.h>

#include "src/caps/cost_model.h"
#include "src/caps/placement_groups.h"
#include "src/caps/search.h"
#include "src/controller/scaling_experiments.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"

namespace capsys {
namespace {

ScalingExperimentOptions FastOptions(PlacementPolicy policy) {
  ScalingExperimentOptions options;
  options.policy = policy;
  options.step_duration_s = 240.0;
  options.seed = 3;
  return options;
}

TEST(ScalingExperimentTest, CapsMeetsTargetsWithoutOverprovisioning) {
  Cluster cluster(8, WorkerSpec::R5dXlarge(8));
  QuerySpec q = BuildQ3Inf();
  ScalingRun run = RunScalingExperiment(q, cluster, {720, 1440, 720},
                                        FastOptions(PlacementPolicy::kCaps));
  ASSERT_EQ(run.steps.size(), 3u);
  for (size_t s = 1; s < run.steps.size(); ++s) {
    EXPECT_TRUE(run.steps[s].met_target) << "step " << s;
    EXPECT_FALSE(run.steps[s].overprovisioned) << "step " << s;
  }
}

TEST(ScalingExperimentTest, CapsConvergesInOneDecisionPerRateChange) {
  Cluster cluster(8, WorkerSpec::R5dXlarge(8));
  QuerySpec q = BuildQ3Inf();
  ScalingExperimentOptions options = FastOptions(PlacementPolicy::kCaps);
  options.start_optimal = false;
  ScalingRun run = RunScalingExperiment(q, cluster, {800, 2400, 800}, options);
  // The paper's claim is convergence *within the step* after each rate change: at most a
  // couple of decisions per step, and the target reached by the end of every step.
  EXPECT_LE(run.total_decisions, 2 * static_cast<int>(run.steps.size()));
  for (size_t s = 0; s < run.steps.size(); ++s) {
    EXPECT_TRUE(run.steps[s].met_target) << "step " << s;
  }
}

TEST(ScalingExperimentTest, DefaultPolicyTakesAtLeastAsManyDecisions) {
  Cluster cluster(8, WorkerSpec::R5dXlarge(8));
  QuerySpec q = BuildQ3Inf();
  ScalingExperimentOptions caps = FastOptions(PlacementPolicy::kCaps);
  caps.start_optimal = false;
  ScalingExperimentOptions def = FastOptions(PlacementPolicy::kFlinkDefault);
  def.start_optimal = false;
  ScalingRun caps_run = RunScalingExperiment(q, cluster, {800, 2400, 800}, caps);
  ScalingRun def_run = RunScalingExperiment(q, cluster, {800, 2400, 800}, def);
  EXPECT_GE(def_run.total_decisions, caps_run.total_decisions);
}

TEST(ScalingExperimentTest, TimelineIsMonotoneAndCoversAllSteps) {
  Cluster cluster(8, WorkerSpec::R5dXlarge(8));
  QuerySpec q = BuildQ3Inf();
  ScalingRun run = RunScalingExperiment(q, cluster, {720, 1440},
                                        FastOptions(PlacementPolicy::kCaps));
  ASSERT_FALSE(run.timeline.empty());
  double prev = -1.0;
  for (const auto& p : run.timeline) {
    EXPECT_GT(p.time_s, prev);
    prev = p.time_s;
    EXPECT_GE(p.slots, q.graph.num_operators());  // at least one task per operator
  }
  // Both target levels appear in the timeline.
  bool saw_low = false;
  bool saw_high = false;
  for (const auto& p : run.timeline) {
    saw_low |= p.target_rate == 720;
    saw_high |= p.target_rate == 1440;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(ScalingExperimentTest, DecisionsHaveTimestampsWithinRun) {
  Cluster cluster(8, WorkerSpec::R5dXlarge(8));
  QuerySpec q = BuildQ3Inf();
  ScalingRun run = RunScalingExperiment(q, cluster, {720, 1440},
                                        FastOptions(PlacementPolicy::kCaps));
  EXPECT_EQ(static_cast<int>(run.decision_times_s.size()), run.total_decisions);
  for (double t : run.decision_times_s) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, run.timeline.back().time_s + 60.0);
  }
}

TEST(ScalingExperimentTest, PlacementEventsStampTheDriverClock) {
  Cluster cluster(8, WorkerSpec::R5dXlarge(8));
  QuerySpec q = BuildQ3Inf();
  ScalingExperimentOptions options = FastOptions(PlacementPolicy::kCaps);
  options.start_optimal = false;
  EventLog& log = EventLog::Global();
  log.Enable();
  log.Reset();
  ScalingRun run = RunScalingExperiment(q, cluster, {800, 2400}, options);
  std::vector<Event> events = log.Snapshot();
  log.Disable();
  log.Reset();
  std::vector<double> placement_times;
  for (const Event& e : events) {
    if (e.type == EventType::kPlacementDecision) {
      placement_times.push_back(e.time_s);
    }
  }
  ASSERT_GE(run.decision_times_s.size(), 1u);
  // The initial plan at t=0, then one plan per reconfiguration at its decision time.
  ASSERT_EQ(placement_times.size(), run.decision_times_s.size() + 1);
  EXPECT_DOUBLE_EQ(placement_times[0], 0.0);
  for (size_t i = 0; i < run.decision_times_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(placement_times[i + 1], run.decision_times_s[i]) << "decision " << i;
  }
}

// --- Placement groups ----------------------------------------------------------------------------

TEST(PlacementGroupsTest, SplitPreservesStructure) {
  QuerySpec q = BuildQ1Sliding();
  // Split the window operator (p=8) into a hot group of 2 double-weight tasks and a cold
  // group of 6 regular tasks.
  std::vector<GroupSpec> groups = {{2, 2.0}, {6, 1.0}};
  LogicalGraph split = SplitIntoPlacementGroups(q.graph, 2, groups);
  EXPECT_EQ(split.num_operators(), q.graph.num_operators() + 1);
  EXPECT_EQ(split.total_parallelism(), q.graph.total_parallelism());
  EXPECT_EQ(split.Validate(), "");
  // Hot group's per-record costs are scaled.
  const auto& hot = split.op(2);
  const auto& cold = split.op(3);
  EXPECT_NEAR(hot.profile.io_bytes_per_record, 2.0 * cold.profile.io_bytes_per_record, 1e-9);
  // Group operators inherit both the upstream and downstream edges.
  EXPECT_EQ(split.Upstreams(2).size(), 1u);
  EXPECT_EQ(split.Downstreams(2).size(), 1u);
  EXPECT_EQ(split.Upstreams(3).size(), 1u);
}

TEST(PlacementGroupsTest, GroupParallelismMustSum) {
  QuerySpec q = BuildQ1Sliding();
  std::vector<GroupSpec> bad = {{2, 1.0}, {3, 1.0}};  // 5 != 8
  EXPECT_DEATH(SplitIntoPlacementGroups(q.graph, 2, bad), "sum");
}

TEST(PlacementGroupsTest, SearchHandlesGroupsAsOuterLayers) {
  QuerySpec q = BuildQ1Sliding();
  std::vector<GroupSpec> groups = {{4, 1.5}, {4, 0.5}};
  LogicalGraph split = SplitIntoPlacementGroups(q.graph, 2, groups);
  PhysicalGraph physical = PhysicalGraph::Expand(split);
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  auto rates = PropagateRates(split, q.source_rates);
  CostModel model(physical, cluster, TaskDemands(physical, rates));
  SearchResult r = CapsSearch(model, SearchOptions{}).Run();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.best.placement.Validate(physical, cluster), "");
  // The heavy group should not be stacked: its two heaviest-task workers differ.
  EXPECT_LE(r.best.placement.ColocationDegree(physical, cluster, 2), 2);
}

}  // namespace
}  // namespace capsys
