// The six evaluation queries (paper §3.1, §6.1) as logical dataflow graphs with calibrated
// per-record resource profiles.
//
//   Q1-sliding   (Nexmark Q5)  map -> sliding window; stateful, I/O-heavy window
//   Q2-join      (Nexmark Q8)  two sources, two maps, tumbling window join; large state
//   Q3-inf       (Crayfish)    image decode + model inference; compute- & network-heavy
//   Q4-join      (Nexmark Q3)  filter + incremental join
//   Q5-aggregate (Nexmark Q6)  stateful join + process function
//   Q6-session   (Nexmark Q11) session window accumulating large state
//
// Default parallelisms target the 4-worker x 4-slot motivation cluster and were chosen so
// the distinct-plan counts match the paper's reported search-space sizes (80 plans for
// Q1-sliding, 665 for Q2-join, 950 for Q3-inf). Default target rates saturate that cluster
// the way §3.1 describes ("configure the target input rate to match the capacity of the
// resource cluster"). Profiles are per-record unit costs; the cost profiler re-derives them
// empirically at deployment time.
#ifndef SRC_NEXMARK_QUERIES_H_
#define SRC_NEXMARK_QUERIES_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/dataflow/logical_graph.h"

namespace capsys {

// A query plus the experiment defaults the paper associates with it.
struct QuerySpec {
  LogicalGraph graph;
  // Target generation rate per source operator (records/s).
  std::map<OperatorId, double> source_rates;

  double TotalTargetRate() const {
    double total = 0.0;
    for (const auto& [op, r] : source_rates) {
      total += r;
    }
    return total;
  }
  // Scales every source target rate by `factor` (used when deploying on larger clusters).
  void ScaleRates(double factor) {
    for (auto& [op, r] : source_rates) {
      r *= factor;
    }
  }
};

QuerySpec BuildQ1Sliding();
QuerySpec BuildQ2Join();
QuerySpec BuildQ3Inf();
QuerySpec BuildQ4Join();
QuerySpec BuildQ5Aggregate();
QuerySpec BuildQ6Session();

// All six queries in paper order.
std::vector<QuerySpec> BuildAllQueries();

// Query by short name ("q1".."q6") or graph name ("q1-sliding"); nullopt on unknown names.
std::optional<QuerySpec> FindQueryByName(const std::string& name);

// As FindQueryByName, but CHECK-fails on unknown names.
QuerySpec BuildQueryByName(const std::string& name);

}  // namespace capsys

#endif  // SRC_NEXMARK_QUERIES_H_
