// Command-line placement tool: compute and inspect a placement for one of the built-in
// queries on a configurable cluster.
//
//   usage: placement_tool [query] [workers] [slots] [policy] [rate_scale]
//     query      q1..q6            (default q1)
//     workers    cluster size      (default 4)
//     slots      slots per worker  (default 4)
//     policy     capsys|default|evenly|odrp (default capsys)
//     rate_scale multiplier on the query's default target rate (default 1.0)
//
// Prints the DS2-sized parallelism, the chosen plan, its cost vector, decision time, and
// the simulated performance. A cluster with fewer slots than DS2 sizes for runs the query
// down-scaled to fit; one with fewer slots than the query has operators prints the usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "src/controller/deployment.h"
#include "src/nexmark/queries.h"
#include "src/odrp/odrp.h"

using namespace capsys;

int main(int argc, char** argv) {
  std::string query_name = argc > 1 ? argv[1] : "q1";
  int workers = argc > 2 ? std::atoi(argv[2]) : 4;
  int slots = argc > 3 ? std::atoi(argv[3]) : 4;
  std::string policy_name = argc > 4 ? argv[4] : "capsys";
  double rate_scale = argc > 5 ? std::atof(argv[5]) : 1.0;
  std::optional<QuerySpec> found = FindQueryByName(query_name);
  // Every operator needs a slot; a query DS2 sizes wider than the cluster is down-scaled.
  bool has_slot_per_operator =
      found && static_cast<long long>(workers) * slots >= found->graph.num_operators();
  if (!found || workers < 1 || slots < 1 || !has_slot_per_operator ||
      !std::isfinite(rate_scale) || rate_scale <= 0) {
    std::fprintf(stderr, "usage: %s [q1..q6] [workers] [slots] [capsys|default|evenly|odrp] "
                         "[rate_scale]\n",
                 argv[0]);
    return 1;
  }

  QuerySpec q = *std::move(found);
  q.ScaleRates(rate_scale);
  Cluster cluster(workers, WorkerSpec::R5dXlarge(slots));
  std::printf("query:   %s\ncluster: %s\ntarget:  %.0f rec/s\n\n", q.graph.ToString().c_str(),
              cluster.ToString().c_str(), q.TotalTargetRate());

  LogicalGraph graph = q.graph;
  Placement placement;
  double decision_s = 0.0;
  if (policy_name == "odrp") {
    OdrpOptions options;
    options.timeout_s = 30.0;
    OdrpResult r = SolveOdrp(q.graph, cluster, q.source_rates, options);
    if (!r.found) {
      std::fprintf(stderr, "ODRP found no plan within budget\n");
      return 1;
    }
    std::printf("ODRP: %s\n", r.ToString().c_str());
    graph.SetParallelism(r.parallelism);
    placement = r.placement;
    decision_s = r.decision_time_s;
  } else {
    DeployOptions options;
    options.use_ds2_sizing = true;
    if (policy_name == "default") {
      options.policy = PlacementPolicy::kFlinkDefault;
    } else if (policy_name == "evenly") {
      options.policy = PlacementPolicy::kFlinkEvenly;
    } else if (policy_name != "capsys") {
      std::fprintf(stderr, "unknown policy: %s\n", policy_name.c_str());
      return 1;
    }
    CapsysController controller(cluster, options);
    Deployment d = controller.Deploy(q);
    graph = d.graph;
    placement = d.placement;
    decision_s = d.decision_time_s;
    if (options.policy == PlacementPolicy::kCaps) {
      // α is auto-tuned for find-first instances and all ones for a branch and bound.
      std::printf("search alpha:     %s\nplan cost:        %s\n", d.alpha.ToString().c_str(),
                  d.plan_cost.ToString().c_str());
    }
  }

  PhysicalGraph physical = PhysicalGraph::Expand(graph);
  std::printf("parallelism:");
  for (const auto& op : graph.operators()) {
    std::printf(" %s=%d", op.name.c_str(), op.parallelism);
  }
  std::printf("\ndecision time: %.3f s\nplan: %s\n\n", decision_s,
              placement.ToString(physical).c_str());

  FluidSimulator sim(physical, cluster, placement);
  for (const auto& [op, r] : q.source_rates) {
    sim.SetSourceRate(op, r);
  }
  QuerySummary s = sim.RunMeasured(60, 120);
  std::printf("simulated: %s\n", s.ToString().c_str());
  return 0;
}
