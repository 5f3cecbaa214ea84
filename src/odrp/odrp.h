// ODRP: Optimal DSP Replication and Placement (Cardellini et al. [13, 14]) — the
// state-of-the-art baseline of the paper's §6.3.
//
// ODRP jointly decides operator parallelism and task placement by optimizing a weighted
// multi-objective over response time, resource cost, network traffic, and availability,
// solved exactly (the original uses CPLEX on an ILP; we use an exhaustive branch-and-bound
// over the same space). Following the paper's §6.3 setup:
//   - an operator's execution time is the inverse of its true processing rate;
//   - data rates (lambda) follow from the target input rate and operator selectivities;
//   - all nodes have the same speedup, all links the same delay/bandwidth;
//   - availability is perfect, so that objective term vanishes.
//
// The formulation has no objective to sustain the input rate, so low-resource weight
// settings return under-provisioned plans — exactly the behaviour Table 3 demonstrates.
// The optional `sustain` weight (used by the hand-tuned Weighted config) penalizes
// operators whose utilization exceeds 1.
#ifndef SRC_ODRP_ODRP_H_
#define SRC_ODRP_ODRP_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/cluster/cluster.h"
#include "src/dataflow/placement.h"
#include "src/dataflow/rates.h"

namespace capsys {

struct OdrpWeights {
  double response_time = 1.0;
  double resource_cost = 1.0;
  double network = 1.0;
  double sustain = 0.0;  // not part of base ODRP; >0 only in the Weighted config

  // The three configurations evaluated in Table 3.
  static OdrpWeights Default();   // equal weight on all base objectives
  static OdrpWeights Weighted();  // hand-tuned: throughput + resource efficiency
  static OdrpWeights Latency();   // response time only
};

struct OdrpOptions {
  OdrpWeights weights;
  // Largest parallelism tried per operator; the search range starts at 1.
  int max_parallelism = 16;
  // When true, the placement solver breaks worker symmetry like CAPS does. Off by default:
  // the original ODRP hands one monolithic ILP to CPLEX, which has no knowledge of worker
  // interchangeability — a structural reason for its long decision times.
  bool break_symmetry = false;
  // Exploration budget; the solver returns the best plan found so far when exhausted.
  double timeout_s = 60.0;
  uint64_t max_nodes = UINT64_MAX;
};

struct OdrpResult {
  bool found = false;
  std::vector<int> parallelism;  // chosen parallelism per operator
  Placement placement;           // placement for the physical graph expanded accordingly
  double objective = 0.0;
  int slots_used = 0;
  double decision_time_s = 0.0;
  uint64_t nodes = 0;
  bool budget_exhausted = false;  // stopped by timeout/max_nodes; result is best-so-far

  std::string ToString() const;
};

// Solves the joint parallelism+placement problem for `graph` (whose current parallelism
// values are ignored) against `cluster`, with per-source target rates.
OdrpResult SolveOdrp(const LogicalGraph& graph, const Cluster& cluster,
                     const std::map<OperatorId, double>& source_rates,
                     const OdrpOptions& options);

}  // namespace capsys

#endif  // SRC_ODRP_ODRP_H_
