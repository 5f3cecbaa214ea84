// Operator chaining (paper §6.1): Flink fuses operators connected by forward edges into a
// single task chain; "CAPS works as-is with chaining enabled — it considers any chain as a
// single operator during profiling and when exploring the search space."
//
// ChainOperators() fuses maximal linear segments of a logical graph — runs of operators
// where each link is the sole output of its producer and sole input of its consumer, with
// equal parallelism and a chainable partition scheme — into single operators whose profile
// aggregates the segment (per-record costs compose through the selectivities; the chain's
// selectivity is their product; the chain emits the last operator's records).
#ifndef SRC_DATAFLOW_CHAINING_H_
#define SRC_DATAFLOW_CHAINING_H_

#include <vector>

#include "src/dataflow/logical_graph.h"

namespace capsys {

struct ChainingResult {
  LogicalGraph graph;
  // chain_of[original operator id] = operator id in the chained graph.
  std::vector<OperatorId> chain_of;
};

// Forward and rebalance edges chain (Flink chains forward edges; rebalance edges are
// chainable when parallelism matches, which Flink's default chaining also exploits). Sources
// never chain: the paper separates them from downstream operators because generation has
// different resource requirements.
ChainingResult ChainOperators(const LogicalGraph& graph);

}  // namespace capsys

#endif  // SRC_DATAFLOW_CHAINING_H_
