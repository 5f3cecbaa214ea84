// CAPSys deployment pipeline (paper §5.1, Figure 6): profile the query, let DS2 size
// operator parallelism, compute a placement with the selected policy, and hand the plan to
// the runtime (here: the fluid simulator).
#ifndef SRC_CONTROLLER_DEPLOYMENT_H_
#define SRC_CONTROLLER_DEPLOYMENT_H_

#include <map>
#include <string>
#include <vector>

#include "src/caps/auto_tuner.h"
#include "src/caps/plan_cache.h"
#include "src/common/rng.h"
#include "src/controller/ds2.h"
#include "src/controller/profiler.h"
#include "src/nexmark/queries.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {

enum class PlacementPolicy : int { kCaps = 0, kFlinkDefault = 1, kFlinkEvenly = 2 };

const char* PolicyName(PlacementPolicy policy);

struct DeployOptions {
  PlacementPolicy policy = PlacementPolicy::kCaps;
  // Size parallelism with DS2 from the profiled costs; when false, the query's configured
  // parallelism is kept (the motivation-study setups fix parallelism explicitly).
  bool use_ds2_sizing = false;
  // Read by nothing: the search runs on one thread. Kept only because the repository
  // benchmark assigns it; a benchmark change drops that line, and then this field.
  int search_threads = 1;
  AutoTuneOptions autotune;
  uint64_t seed = 1;  // randomness for the Flink baseline policies
  // Optional precomputed thresholds (paper §5.2): when set and the cache holds an entry for
  // this graph on this cluster, the search runs under its alpha instead of auto-tuned
  // thresholds (find-first instances) or all ones (branch and bound). Not owned.
  PlanCache* plan_cache = nullptr;
};

struct Deployment {
  LogicalGraph graph;  // final parallelism
  std::map<OperatorId, double> source_rates;
  PhysicalGraph physical;
  Placement placement;
  std::vector<MeasuredCost> costs;  // profiled unit costs
  // Thresholds of the CAPS search (CAPS only): auto-tuned for find-first instances, and
  // (1, 1, 1) for branch and bound instances unless a plan cache gave them.
  ResourceVector alpha;
  ResourceVector plan_cost;         // CAPS cost vector of the chosen plan
  // Placement computation: the search, and auto-tuning for find-first instances.
  double decision_time_s = 0.0;
};

class CapsysController {
 public:
  CapsysController(Cluster cluster, DeployOptions options)
      : cluster_(std::move(cluster)), options_(std::move(options)), rng_(options_.seed) {}

  // Full pipeline on a query spec.
  Deployment Deploy(const QuerySpec& query);

  // Pipeline on an explicit graph + rates (used by the multi-tenant experiment, which
  // merges all queries into one graph). A graph wider than the cluster, as given or as DS2
  // sizes it, is down-scaled to fit (FitParallelism); CHECK-fails only when parallelism 1
  // per operator does not fit.
  Deployment DeployGraph(const LogicalGraph& graph,
                         const std::map<OperatorId, double>& source_rates);

  // Placement only, for an already-expanded graph at `source_rates` with known demands.
  // Returns the plan and fills `alpha`/`plan_cost`/`decision_time_s` of `out` when
  // non-null.
  Placement Place(const PhysicalGraph& physical,
                  const std::map<OperatorId, double>& source_rates,
                  const std::vector<ResourceVector>& demands, Deployment* out);

  const Cluster& cluster() const { return cluster_; }
  DeployOptions& options() { return options_; }

 private:
  Cluster cluster_;
  DeployOptions options_;
  Rng rng_;
};

}  // namespace capsys

#endif  // SRC_CONTROLLER_DEPLOYMENT_H_
