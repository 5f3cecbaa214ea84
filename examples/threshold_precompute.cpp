// Offline threshold precomputation example (paper §5.2): enumerate the DS2 scaling
// scenarios a variable workload can reach, auto-tune pruning thresholds for each scenario
// offline (in parallel) into a PlanCache, persist it, and show a runtime deployment
// skipping the auto-tuning step entirely via a cache hit.
//
//   $ ./threshold_precompute [cache_file]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/caps/plan_cache.h"
#include "src/controller/deployment.h"
#include "src/nexmark/queries.h"

using namespace capsys;

int main(int argc, char** argv) {
  const char* cache_file = argc > 1 ? argv[1] : "/tmp/capsys_thresholds.txt";
  QuerySpec q = BuildQ3Inf();
  Cluster cluster(8, WorkerSpec::R5dXlarge(8));

  // 1. Offline: enumerate the parallelism combinations DS2 would pick across the rate
  // range the workload oscillates over, and tune thresholds for each.
  std::vector<double> rate_multipliers;
  for (double m = 0.25; m <= 2.0; m *= 1.25) {
    rate_multipliers.push_back(m);
  }
  auto scenarios = EnumerateScalingScenarios(q.graph, q.source_rates,
                                             cluster.worker(0).spec, rate_multipliers);
  std::printf("scaling scenarios for rates x0.25..x2.0: %zu\n", scenarios.size());

  PlanCache cache;
  PrecomputeThresholds(cache, q.graph, q.source_rates, cluster, scenarios, AutoTuneOptions{},
                       /*num_threads=*/4);
  std::printf("precomputed thresholds: %zu entries\n", cache.size());
  for (const auto& scenario : scenarios) {
    LogicalGraph sized = q.graph;
    sized.SetParallelism(scenario);
    auto entry = cache.Lookup(PlanCache::Key(sized, q.source_rates, cluster));
    std::string key;
    for (int p : scenario) {
      key += (key.empty() ? "" : ",") + std::to_string(p);
    }
    std::printf("  [%s] -> %s\n", key.c_str(),
                entry.has_value() ? entry->alpha.ToString().c_str() : "(infeasible)");
  }

  // 2. Persist and reload (e.g. shipped with the job's deployment bundle).
  {
    std::ofstream out(cache_file);
    out << cache.Serialize();
  }
  PlanCache loaded;
  {
    std::ifstream in(cache_file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!loaded.Deserialize(buffer.str())) {
      std::fprintf(stderr, "failed to reload cache\n");
      return 1;
    }
  }
  std::printf("reloaded %zu entries from %s\n\n", loaded.size(), cache_file);

  // 3. Runtime: deploy with the cache — the placement decision skips auto-tuning.
  DeployOptions options;
  options.policy = PlacementPolicy::kCaps;
  options.use_ds2_sizing = true;
  options.plan_cache = &loaded;
  CapsysController controller(cluster, options);
  Deployment d = controller.Deploy(q);
  std::printf("deployed with alpha=%s (decision %.4f s, cache %s)\n",
              d.alpha.ToString().c_str(), d.decision_time_s,
              loaded.hits() > 0 ? "HIT" : "MISS (tuned at runtime)");
  return 0;
}
