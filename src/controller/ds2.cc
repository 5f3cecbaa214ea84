#include "src/controller/ds2.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/dataflow/rates.h"

namespace capsys {

std::string Ds2Decision::ToString() const {
  std::vector<std::string> parts;
  for (int p : parallelism) {
    parts.push_back(Sprintf("%d", p));
  }
  return Sprintf("[%s]%s", Join(parts, ",").c_str(), changed ? " (changed)" : "");
}

Ds2Decision Ds2Scale(const LogicalGraph& graph,
                     const std::map<OperatorId, double>& target_source_rates,
                     const std::vector<Ds2Observation>& observations,
                     int max_parallelism) {
  CAPSYS_CHECK(observations.size() == static_cast<size_t>(graph.num_operators()));
  Ds2Decision decision;
  decision.parallelism.resize(static_cast<size_t>(graph.num_operators()), 1);

  // Propagate target rates in topological order, using *observed* selectivities where
  // available (falling back to the declared profile when an operator processed nothing).
  std::vector<double> target_in(static_cast<size_t>(graph.num_operators()), 0.0);
  std::vector<double> target_out(static_cast<size_t>(graph.num_operators()), 0.0);
  for (OperatorId id : graph.TopologicalOrder()) {
    const auto& op = graph.op(id);
    const auto& obs = observations[static_cast<size_t>(id)];
    double in = 0.0;
    if (graph.Upstreams(id).empty()) {
      auto it = target_source_rates.find(id);
      in = it != target_source_rates.end() ? it->second : 0.0;
    } else {
      for (OperatorId up : graph.Upstreams(id)) {
        in += target_out[static_cast<size_t>(up)];
      }
    }
    double selectivity = op.profile.selectivity;
    if (obs.observed_input_rate > 1e-9) {
      selectivity = obs.observed_output_rate / obs.observed_input_rate;
    }
    target_in[static_cast<size_t>(id)] = in;
    target_out[static_cast<size_t>(id)] = in * selectivity;

    // Sources "process" their generation target; all operators size identically.
    double true_rate = obs.true_rate_per_task;
    int p = op.parallelism;
    if (true_rate > 1e-9 && in > 1e-9) {
      p = static_cast<int>(std::ceil(in / true_rate));
    }
    p = std::clamp(p, 1, max_parallelism);
    decision.parallelism[static_cast<size_t>(id)] = p;
    if (p != op.parallelism) {
      decision.changed = true;
    }
  }
  return decision;
}

double StandaloneTaskRate(const MeasuredCost& cost, const WorkerSpec& spec,
                          double cores_per_task) {
  double rate = 1e18;
  if (cost.cpu_per_record > 1e-15) {
    rate = std::min(rate, cores_per_task / cost.cpu_per_record);
  }
  if (cost.io_bytes_per_record > 1e-15) {
    rate = std::min(rate, spec.io_bandwidth_bps / cost.io_bytes_per_record);
  }
  double out = cost.selectivity * cost.out_bytes_per_record;
  if (out > 1e-15) {
    rate = std::min(rate, spec.net_bandwidth_bps / out);
  }
  return rate;
}

std::vector<int> MinimalParallelism(const LogicalGraph& graph,
                                    const std::map<OperatorId, double>& source_rates,
                                    const WorkerSpec& spec, double cores_per_task) {
  auto rates = PropagateRates(graph, source_rates);
  std::vector<int> p(static_cast<size_t>(graph.num_operators()), 1);
  for (OperatorId o = 0; o < graph.num_operators(); ++o) {
    const OperatorProfile& prof = graph.op(o).profile;
    MeasuredCost solo_cost{prof.cpu_per_record * (1.0 + prof.gc_spike_fraction),
                           prof.io_bytes_per_record, prof.out_bytes_per_record,
                           prof.selectivity};
    double solo = StandaloneTaskRate(solo_cost, spec, cores_per_task);
    double in = rates[static_cast<size_t>(o)].input_rate;
    if (solo > 1e-9 && in > 1e-9) {
      p[static_cast<size_t>(o)] = std::max(1, static_cast<int>(std::ceil(in / solo)));
    }
  }
  return p;
}

std::vector<std::vector<int>> EnumerateScalingScenarios(
    const LogicalGraph& graph, const std::map<OperatorId, double>& source_rates,
    const WorkerSpec& worker_spec, const std::vector<double>& rate_multipliers) {
  std::set<std::vector<int>> scenarios;
  for (double mult : rate_multipliers) {
    std::map<OperatorId, double> rates = source_rates;
    for (auto& [op, r] : rates) {
      r *= mult;
    }
    scenarios.insert(MinimalParallelism(graph, rates, worker_spec));
  }
  return {scenarios.begin(), scenarios.end()};
}

}  // namespace capsys
