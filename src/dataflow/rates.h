// Steady-state rate propagation and per-task resource demands.
//
// Given target source rates, propagates record rates through the logical graph using each
// operator's selectivity, then derives the per-task utilizations of Table 1:
//   U_cpu(t) = input rate x cpu_per_record          [CPU-seconds/s]
//   U_io(t)  = input rate x io_bytes_per_record     [bytes/s]
//   U_net(t) = output rate x out_bytes_per_record   [bytes/s]
// These feed both the CAPS cost model (paper §4.2) and the simulator.
#ifndef SRC_DATAFLOW_RATES_H_
#define SRC_DATAFLOW_RATES_H_

#include <map>
#include <vector>

#include "src/common/types.h"
#include "src/dataflow/physical_graph.h"

namespace capsys {

// Aggregate record rates of one logical operator at steady state.
struct OperatorRates {
  double input_rate = 0.0;   // records/s entering the operator (summed over all tasks)
  double output_rate = 0.0;  // records/s leaving the operator
};

// Computes per-operator steady-state rates from per-source target rates. `source_rates`
// maps source OperatorId -> records/s; sources missing from the map default to 0.
std::vector<OperatorRates> PropagateRates(const LogicalGraph& graph,
                                          const std::map<OperatorId, double>& source_rates);

// Convenience overload for single-source graphs (or uniform rate across all sources).
std::vector<OperatorRates> PropagateRates(const LogicalGraph& graph, double source_rate);

// Resource demand of every task under the given operator rates, assuming each operator's
// rate is evenly divided among its tasks (§4.1 model assumption).
std::vector<ResourceVector> TaskDemands(const PhysicalGraph& graph,
                                        const std::vector<OperatorRates>& rates);

// Demand of one of `parallelism` tasks of an operator running at `rates`, given its unit
// costs: `unit_cost.cpu` CPU-seconds and `unit_cost.io` state bytes per input record, and
// `unit_cost.net` bytes per output record.
ResourceVector TaskDemand(int parallelism, const OperatorRates& rates,
                          const ResourceVector& unit_cost);

}  // namespace capsys

#endif  // SRC_DATAFLOW_RATES_H_
