// DS2 auto-scaling model (Kalavri et al., OSDI'18 [30]) — the scaling controller CAPSys
// couples with (paper §5.1 step ③).
//
// DS2 computes, for each operator, the *true processing rate* of its tasks (the rate a task
// sustains while it is doing useful work), propagates target rates through the dataflow
// using observed selectivities, and sets the operator's parallelism to
//     p_o = ceil(target input rate of o / true rate per task of o).
// When the placement is contended, measured true rates underestimate task capacity, which
// is exactly how bad placements mislead DS2 into overshooting (paper §6.4).
#ifndef SRC_CONTROLLER_DS2_H_
#define SRC_CONTROLLER_DS2_H_

#include <map>
#include <string>
#include <vector>

#include "src/controller/profiler.h"
#include "src/dataflow/logical_graph.h"

namespace capsys {

// Per-operator measurements DS2 consumes, typically extracted from a FluidSimulator window.
struct Ds2Observation {
  double true_rate_per_task = 0.0;  // records/s one task can process under current placement
  double observed_input_rate = 0.0;
  double observed_output_rate = 0.0;
};

// Default upper bound on one operator's parallelism.
inline constexpr int kDs2MaxParallelism = 64;

// Result of one DS2 evaluation.
struct Ds2Decision {
  std::vector<int> parallelism;  // per operator
  bool changed = false;          // differs from the graph's current parallelism

  std::string ToString() const;
};

// Runs the DS2 model. `observations` is indexed by OperatorId. Source operators keep their
// current parallelism unless their true rate cannot sustain the target, in which case they
// are scaled like any other operator. Each operator's parallelism is clamped to
// [1, max_parallelism].
Ds2Decision Ds2Scale(const LogicalGraph& graph,
                     const std::map<OperatorId, double>& target_source_rates,
                     const std::vector<Ds2Observation>& observations,
                     int max_parallelism = kDs2MaxParallelism);

// Standalone (uncontended) records/s one task with per-record costs `cost` sustains on
// `spec`: the binding one of its CPU (`cores_per_task` cores), state-backend I/O and
// emitted network bytes. The per-task capacity DS2 sizes against.
double StandaloneTaskRate(const MeasuredCost& cost, const WorkerSpec& spec,
                          double cores_per_task = 1.0);

// Ground-truth minimal parallelism per operator at `source_rates`: the operator's input
// rate over the standalone rate of one task at its declared profile with the solo GC
// multiplier. DS2 with perfect metrics and an uncontended placement returns exactly this.
std::vector<int> MinimalParallelism(const LogicalGraph& graph,
                                    const std::map<OperatorId, double>& source_rates,
                                    const WorkerSpec& spec, double cores_per_task = 1.0);

// Enumerates the scaling scenarios DS2 can reach for `graph`: the minimal parallelism
// vector at each of `rate_multipliers` x `source_rates`. Deduplicated and sorted.
std::vector<std::vector<int>> EnumerateScalingScenarios(
    const LogicalGraph& graph, const std::map<OperatorId, double>& source_rates,
    const WorkerSpec& worker_spec, const std::vector<double>& rate_multipliers);

}  // namespace capsys

#endif  // SRC_CONTROLLER_DS2_H_
