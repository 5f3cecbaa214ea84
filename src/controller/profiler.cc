#include "src/controller/profiler.h"

#include <algorithm>
#include <memory>

#include "src/common/logging.h"
#include "src/dataflow/rates.h"

namespace capsys {
namespace {

// Fraction of the target rate used while profiling (kept low so no operator saturates and
// measured costs reflect uncontended behaviour).
constexpr double kRateFraction = 0.3;
constexpr double kWarmupS = 10.0;
constexpr double kMeasureS = 30.0;

}  // namespace

std::vector<MeasuredCost> ProfileOperators(const LogicalGraph& graph,
                                           const std::map<OperatorId, double>& source_rates,
                                           const WorkerSpec& worker_spec) {
  // Deploy each operator's tasks on their own dedicated worker: one worker per operator,
  // sized to hold the operator's full parallelism. All channels are then cross-worker, so
  // emitted bytes appear 1:1 as NIC traffic.
  int num_ops = graph.num_operators();
  int max_par = 1;
  for (const auto& op : graph.operators()) {
    max_par = std::max(max_par, op.parallelism);
  }
  WorkerSpec spec = worker_spec;
  spec.slots = max_par;
  Cluster cluster(num_ops, spec);

  PhysicalGraph physical = PhysicalGraph::Expand(graph);
  Placement placement(physical.num_tasks());
  for (const auto& t : physical.tasks()) {
    placement.Assign(t.id, t.op);  // worker id == operator id
  }

  // Run at a low rate so no operator saturates its (single-worker) deployment; if sources
  // get throttled anyway — e.g. a wide stateful operator whose tasks contend with each
  // other on the profiling worker — back off and retry so measured unit costs reflect
  // uncontended behaviour.
  double fraction = kRateFraction;
  double from = 0.0;
  double to = 0.0;
  std::unique_ptr<FluidSimulator> sim;
  for (int attempt = 0; attempt < 4; ++attempt) {
    sim = std::make_unique<FluidSimulator>(physical, cluster, placement);
    double requested = 0.0;
    for (const auto& [op, rate] : source_rates) {
      sim->SetSourceRate(op, rate * fraction);
      requested += rate * fraction;
    }
    sim->RunFor(kWarmupS);
    from = sim->time_s();
    sim->RunFor(kMeasureS);
    to = sim->time_s();
    double emitted = sim->Throughput(from, to);
    if (requested <= 0.0 || emitted >= 0.97 * requested) {
      break;
    }
    fraction *= 0.5;
  }

  std::vector<MeasuredCost> costs(static_cast<size_t>(num_ops));
  for (OperatorId o = 0; o < num_ops; ++o) {
    double in_rate = sim->OperatorInputRate(o, from, to);
    double out_rate = sim->OperatorOutputRate(o, from, to);
    auto& c = costs[static_cast<size_t>(o)];
    if (in_rate < 1e-9) {
      // Operator processed nothing during profiling; fall back to declared costs.
      const auto& p = graph.op(o).profile;
      c.cpu_per_record = p.cpu_per_record;
      c.io_bytes_per_record = p.io_bytes_per_record;
      c.out_bytes_per_record = p.out_bytes_per_record;
      c.selectivity = p.selectivity;
      continue;
    }
    WorkerId w = o;  // dedicated worker
    ResourceVector used = sim->WorkerUsage(w, from, to);
    c.cpu_per_record = used.cpu / in_rate;
    c.io_bytes_per_record = used.io / in_rate;
    c.out_bytes_per_record = out_rate > 1e-9 ? used.net / out_rate : 0.0;
    c.selectivity = out_rate / in_rate;
  }
  return costs;
}

std::vector<MeasuredCost> EstimateCostsOnline(const FluidSimulator& sim, double from_s,
                                              double to_s,
                                              const std::vector<MeasuredCost>& previous) {
  int num_ops = sim.graph().logical().num_operators();
  CAPSYS_CHECK(previous.size() == static_cast<size_t>(num_ops));
  std::vector<MeasuredCost> costs = previous;
  for (OperatorId o = 0; o < num_ops; ++o) {
    double in_rate = sim.OperatorInputRate(o, from_s, to_s);
    double out_rate = sim.OperatorOutputRate(o, from_s, to_s);
    if (in_rate < 1e-9) {
      continue;  // no observations in the window; keep the previous estimate
    }
    auto& c = costs[static_cast<size_t>(o)];
    ResourceVector used = sim.OperatorUsage(o, from_s, to_s);
    c.cpu_per_record = used.cpu / in_rate;
    c.io_bytes_per_record = used.io / in_rate;
    if (out_rate > 1e-9) {
      c.out_bytes_per_record = used.net / out_rate;
    }
    c.selectivity = out_rate / in_rate;
  }
  return costs;
}

std::vector<ResourceVector> DemandsFromMeasuredCosts(const PhysicalGraph& graph,
                                                     const std::vector<MeasuredCost>& costs,
                                                     const std::vector<OperatorRates>& rates) {
  CAPSYS_CHECK(costs.size() == static_cast<size_t>(graph.num_operators()));
  CAPSYS_CHECK(rates.size() == static_cast<size_t>(graph.num_operators()));
  std::vector<ResourceVector> demands(static_cast<size_t>(graph.num_tasks()));
  for (const auto& t : graph.tasks()) {
    const auto& c = costs[static_cast<size_t>(t.op)];
    demands[static_cast<size_t>(t.id)] =
        TaskDemand(graph.logical().op(t.op).parallelism, rates[static_cast<size_t>(t.op)],
                   {c.cpu_per_record, c.io_bytes_per_record, c.out_bytes_per_record});
  }
  return demands;
}

}  // namespace capsys
