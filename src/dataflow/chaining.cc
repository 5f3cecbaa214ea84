#include "src/dataflow/chaining.h"

#include <algorithm>

#include "src/common/logging.h"

namespace capsys {
namespace {

bool SchemeChainable(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kForward:
    case PartitionScheme::kRebalance:
      return true;
    case PartitionScheme::kHash:
      return false;  // key partitioning requires a network shuffle
  }
  return false;
}

}  // namespace

ChainingResult ChainOperators(const LogicalGraph& graph) {
  int n = graph.num_operators();
  // successor[i] = j when the edge i->j is chainable and both endpoints are linear.
  std::vector<OperatorId> successor(static_cast<size_t>(n), kInvalidId);
  std::vector<bool> has_pred(static_cast<size_t>(n), false);
  for (const auto& e : graph.edges()) {
    const auto& from = graph.op(e.from);
    const auto& to = graph.op(e.to);
    bool chainable = SchemeChainable(e.scheme) &&
                     from.parallelism == to.parallelism &&
                     graph.Downstreams(e.from).size() == 1 &&
                     graph.Upstreams(e.to).size() == 1 &&
                     from.kind != OperatorKind::kSource;
    if (chainable) {
      successor[static_cast<size_t>(e.from)] = e.to;
      has_pred[static_cast<size_t>(e.to)] = true;
    }
  }

  ChainingResult result;
  result.graph.set_name(graph.name());
  result.chain_of.assign(static_cast<size_t>(n), kInvalidId);

  // Walk chains from their heads in topological order so the new graph stays topologically
  // ordered too.
  for (OperatorId head : graph.TopologicalOrder()) {
    if (has_pred[static_cast<size_t>(head)]) {
      continue;  // interior of a chain; handled from its head
    }
    // Collect the chain.
    std::vector<OperatorId> chain;
    for (OperatorId cur = head; cur != kInvalidId;
         cur = successor[static_cast<size_t>(cur)]) {
      chain.push_back(cur);
    }
    // Aggregate the chain's profile: operator i in the chain processes f_i records per
    // chain-input record, where f accumulates the upstream selectivities.
    OperatorProfile profile;
    profile.cpu_per_record = 0.0;
    profile.io_bytes_per_record = 0.0;
    profile.selectivity = 1.0;
    profile.stateful = false;
    double f = 1.0;
    double gc_weighted = 0.0;
    double dominant_cpu = -1.0;
    OperatorKind kind = graph.op(head).kind;
    std::string name;
    for (OperatorId id : chain) {
      const auto& op = graph.op(id);
      double cpu = f * op.profile.cpu_per_record;
      profile.cpu_per_record += cpu;
      profile.io_bytes_per_record += f * op.profile.io_bytes_per_record;
      gc_weighted += cpu * op.profile.gc_spike_fraction;
      profile.stateful = profile.stateful || op.profile.stateful;
      if (cpu > dominant_cpu && op.kind != OperatorKind::kSource) {
        dominant_cpu = cpu;
        kind = op.kind;
      }
      f *= op.profile.selectivity;
      name += (name.empty() ? "" : "->") + op.name;
    }
    profile.selectivity = f;
    profile.out_bytes_per_record = graph.op(chain.back()).profile.out_bytes_per_record;
    if (profile.cpu_per_record > 0.0) {
      profile.gc_spike_fraction = gc_weighted / profile.cpu_per_record;
    }
    if (graph.op(head).kind == OperatorKind::kSource) {
      kind = OperatorKind::kSource;  // a chain starting at a source stays a source
    }
    OperatorId rep =
        result.graph.AddOperator(name, kind, profile, graph.op(head).parallelism);
    for (OperatorId id : chain) {
      result.chain_of[static_cast<size_t>(id)] = rep;
    }
  }

  // Re-create the non-chained edges between chain representatives.
  for (const auto& e : graph.edges()) {
    if (successor[static_cast<size_t>(e.from)] == e.to) {
      continue;  // fused away
    }
    result.graph.AddEdge(result.chain_of[static_cast<size_t>(e.from)],
                         result.chain_of[static_cast<size_t>(e.to)], e.scheme);
  }
  CAPSYS_CHECK_MSG(result.graph.Validate().empty(), result.graph.Validate());
  return result;
}

}  // namespace capsys
