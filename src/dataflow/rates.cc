#include "src/dataflow/rates.h"

#include "src/common/logging.h"

namespace capsys {

std::vector<OperatorRates> PropagateRates(const LogicalGraph& graph,
                                          const std::map<OperatorId, double>& source_rates) {
  std::vector<OperatorRates> rates(static_cast<size_t>(graph.num_operators()));
  for (OperatorId id : graph.TopologicalOrder()) {
    const auto& op = graph.op(id);
    auto& r = rates[static_cast<size_t>(id)];
    if (graph.Upstreams(id).empty()) {
      auto it = source_rates.find(id);
      r.input_rate = it != source_rates.end() ? it->second : 0.0;
    } else {
      double in = 0.0;
      for (OperatorId up : graph.Upstreams(id)) {
        in += rates[static_cast<size_t>(up)].output_rate;
      }
      r.input_rate = in;
    }
    r.output_rate = r.input_rate * op.profile.selectivity;
  }
  return rates;
}

std::vector<OperatorRates> PropagateRates(const LogicalGraph& graph, double source_rate) {
  std::map<OperatorId, double> source_rates;
  for (OperatorId id : graph.SourceIds()) {
    source_rates[id] = source_rate;
  }
  return PropagateRates(graph, source_rates);
}

ResourceVector TaskDemand(int parallelism, const OperatorRates& rates,
                          const ResourceVector& unit_cost) {
  CAPSYS_CHECK(parallelism >= 1);
  double per_task_in = rates.input_rate / parallelism;
  double per_task_out = rates.output_rate / parallelism;
  ResourceVector demand;
  demand.cpu = per_task_in * unit_cost.cpu;
  demand.io = per_task_in * unit_cost.io;
  demand.net = per_task_out * unit_cost.net;
  return demand;
}

std::vector<ResourceVector> TaskDemands(const PhysicalGraph& graph,
                                        const std::vector<OperatorRates>& rates) {
  CAPSYS_CHECK(rates.size() == static_cast<size_t>(graph.num_operators()));
  std::vector<ResourceVector> demands(static_cast<size_t>(graph.num_tasks()));
  for (const auto& t : graph.tasks()) {
    const auto& op = graph.logical().op(t.op);
    demands[static_cast<size_t>(t.id)] =
        TaskDemand(op.parallelism, rates[static_cast<size_t>(t.op)],
                   {op.profile.cpu_per_record, op.profile.io_bytes_per_record,
                    op.profile.out_bytes_per_record});
  }
  return demands;
}

}  // namespace capsys
