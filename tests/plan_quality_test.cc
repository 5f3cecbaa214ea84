// Plan-quality oracle for the plan step (src/caps/plan.h): every plan PlanPlacement makes on
// a fixed set of instances is scored by simulated throughput against a tuned reference,
// auto-tuned thresholds followed by PlanPlacement at that α, the paper's plan step (§5.2).
// The instances are the repository benchmark's two planning regimes:
//   - deploy_tight: the six NEXMark queries DS2-sized on 8 m5d.2xlarge workers with 8
//     slots, at 120 rate scales from 4.8 to 5.8 (a golden-ratio sequence per query from
//     seed 2004), costed from the profiled unit costs as CapsysController::Deploy does;
//   - service: the six queries at their default widths and one wider, on two residual
//     clusters of c5d.4xlarge workers with uneven free slots (search_test's shapes).
// Each plan is simulated with RunMeasured(30, 60). The test prints the sums and the worst
// per-instance loss, and fails when a plan sustains more than 1e-3 less of its target rate
// than the reference does. A benchmark's mean throughput averages too much to show one
// lost instance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/caps/auto_tuner.h"
#include "src/caps/plan.h"
#include "src/common/rng.h"
#include "src/controller/deployment.h"
#include "src/controller/profiler.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

constexpr double kMaxLoss = 1e-3;

// One instance: the cost model and what the simulator needs to score a plan of it.
struct Instance {
  std::string name;
  PhysicalGraph physical;
  Cluster cluster;
  std::map<OperatorId, double> source_rates;
  double target_rate = 0.0;
  std::vector<ResourceVector> demands;
  int find_first_above_tasks = 0;
};

std::vector<Instance> DeployTightInstances() {
  constexpr int kCount = 120;
  constexpr double kScaleMin = 4.8;
  constexpr double kScaleMax = 5.8;
  constexpr double kGolden = 0.6180339887498949;
  Cluster cluster(8, WorkerSpec::M5d2xlarge(8));
  std::vector<QuerySpec> queries = BuildAllQueries();
  Rng rng(2004);
  std::vector<double> phase(queries.size());
  for (double& p : phase) {
    p = rng.UniformDouble();
  }
  DeployOptions sizing;
  sizing.policy = PlacementPolicy::kFlinkDefault;  // only the DS2-sized graph is needed
  sizing.use_ds2_sizing = true;
  std::vector<Instance> out;
  for (int i = 0; i < kCount; ++i) {
    size_t q = static_cast<size_t>(i) % queries.size();
    double u = phase[q] + static_cast<double>(static_cast<size_t>(i) / queries.size()) * kGolden;
    double scale = kScaleMin + (kScaleMax - kScaleMin) * (u - std::floor(u));
    QuerySpec spec = queries[q];
    spec.ScaleRates(scale);
    Deployment d = CapsysController(cluster, sizing).Deploy(spec);
    char name[64];
    std::snprintf(name, sizeof(name), "%s @ %.3f", spec.graph.name().c_str(), scale);
    out.push_back(Instance{
        .name = name,
        .physical = d.physical,
        .cluster = cluster,
        .source_rates = d.source_rates,
        .target_rate = spec.TotalTargetRate(),
        .demands = DemandsFromMeasuredCosts(d.physical, d.costs,
                                            PropagateRates(d.graph, d.source_rates)),
        .find_first_above_tasks = 48,
    });
  }
  return out;
}

std::vector<Instance> ServiceInstances() {
  const std::vector<std::vector<int>> free_slots = {{13, 4, 9, 16, 2, 7}, {4, 16, 12, 9, 16, 3}};
  std::vector<Instance> out;
  for (const QuerySpec& q : BuildAllQueries()) {
    for (int wider : {0, 1}) {
      LogicalGraph g = q.graph;
      std::vector<int> widths;
      for (const auto& op : g.operators()) {
        widths.push_back(op.kind == OperatorKind::kSink ? op.parallelism : op.parallelism + wider);
      }
      g.SetParallelism(widths);
      PhysicalGraph physical = PhysicalGraph::Expand(g);
      for (const auto& free : free_slots) {
        std::vector<WorkerSpec> specs;
        for (int slots : free) {
          specs.push_back(WorkerSpec::C5d4xlarge(slots));
        }
        Cluster residual(specs);
        out.push_back(Instance{
            .name = g.name() + " +" + std::to_string(wider) + " on " +
                    std::to_string(residual.total_slots()) + " slots",
            .physical = physical,
            .cluster = residual,
            .source_rates = q.source_rates,
            .target_rate = q.TotalTargetRate(),
            .demands = TaskDemands(physical, PropagateRates(g, q.source_rates)),
            .find_first_above_tasks = 32,
        });
      }
    }
  }
  return out;
}

// The share of its target rate `plan` sustains in the simulator.
double ThroughputRatio(const Instance& inst, const Placement& plan) {
  FluidSimulator sim(inst.physical, inst.cluster, plan);
  for (const auto& [source, rate] : inst.source_rates) {
    sim.SetSourceRate(source, rate);
  }
  return sim.RunMeasured(30, 60).throughput / inst.target_rate;
}

struct Totals {
  int instances = 0;
  double plan = 0.0;       // Σ throughput ratio of PlanPlacement's plans
  double reference = 0.0;  // Σ throughput ratio of the tuned reference's plans
  int below = 0;           // instances whose plan sustains less than the reference
  double worst = 0.0;      // worst plan − reference below 0
  std::string worst_name = "none";
};

// Plans every instance both ways, prints one summary row, and checks every instance.
void ExpectNoLoss(const char* group, const std::vector<Instance>& instances) {
  const AutoTuneOptions tune{.timeout_s = 600.0, .probe_timeout_s = 60.0};
  Totals t;
  for (const Instance& inst : instances) {
    CostModel model(inst.physical, inst.cluster, inst.demands);
    PlannedPlacement planned =
        PlanPlacement(model, std::nullopt, tune, inst.find_first_above_tasks);
    AutoTuneResult tuned = AutoTuneThresholds(model, tune);
    PlannedPlacement reference =
        PlanPlacement(model, tuned.feasible ? tuned.alpha : ResourceVector{1.0, 1.0, 1.0}, tune,
                      inst.find_first_above_tasks);
    double plan = ThroughputRatio(inst, planned.placement);
    double ref = ThroughputRatio(inst, reference.placement);
    ++t.instances;
    t.plan += plan;
    t.reference += ref;
    t.below += plan < ref ? 1 : 0;
    if (plan - ref < t.worst) {
      t.worst = plan - ref;
      t.worst_name = inst.name;
    }
    EXPECT_GE(plan, ref - kMaxLoss) << inst.name << ": plan " << plan << ", reference " << ref;
  }
  std::printf("%-13s %6s %10s %14s %6s %10s  %s\n", "instances", "count", "plan sum",
              "reference sum", "below", "worst", "worst instance");
  std::printf("%-13s %6d %10.5f %14.5f %6d %+10.2e  %s\n", group, t.instances, t.plan,
              t.reference, t.below, t.worst, t.worst_name.c_str());
}

TEST(PlanQualityTest, DeployTightMatchesTunedReference) {
  ExpectNoLoss("deploy_tight", DeployTightInstances());
}

TEST(PlanQualityTest, ServiceShapesMatchTunedReference) {
  ExpectNoLoss("service", ServiceInstances());
}

}  // namespace
}  // namespace capsys
