// Cost profiling (paper §5.1): estimates each operator's per-record resource costs by
// deploying the query with every operator's tasks isolated on a dedicated worker and
// recording (i) CPU utilization, (ii) state-backend bytes, (iii) emitted bytes, each
// normalized by the operator's observed rate. Profiling runs once; on reconfiguration the
// unit costs are multiplied by the new target rates.
#ifndef SRC_CONTROLLER_PROFILER_H_
#define SRC_CONTROLLER_PROFILER_H_

#include <map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/dataflow/logical_graph.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {

// Measured per-record unit costs of one operator, in the same units as OperatorProfile.
struct MeasuredCost {
  double cpu_per_record = 0.0;
  double io_bytes_per_record = 0.0;
  double out_bytes_per_record = 0.0;
  double selectivity = 1.0;
};

// Profiles every operator of `graph` on `worker_spec`-shaped workers. Returns one entry per
// OperatorId.
std::vector<MeasuredCost> ProfileOperators(const LogicalGraph& graph,
                                           const std::map<OperatorId, double>& source_rates,
                                           const WorkerSpec& worker_spec);

// Converts measured unit costs into per-task demand vectors for a physical graph running at
// the given operator rates — the U(t) inputs of the CAPS cost model.
std::vector<ResourceVector> DemandsFromMeasuredCosts(const PhysicalGraph& graph,
                                                     const std::vector<MeasuredCost>& costs,
                                                     const std::vector<OperatorRates>& rates);

// Online profiling (paper §5.1 future work): re-estimates per-operator unit costs from a
// *running* deployment's metrics over the window [from_s, to_s], without redeploying a
// profiling job. Operators that processed nothing in the window keep their `previous`
// estimate. Use when workload characteristics drift (e.g. record sizes or selectivities
// change over time).
std::vector<MeasuredCost> EstimateCostsOnline(const FluidSimulator& sim, double from_s,
                                              double to_s,
                                              const std::vector<MeasuredCost>& previous);

}  // namespace capsys

#endif  // SRC_CONTROLLER_PROFILER_H_
