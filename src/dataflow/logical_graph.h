// Logical directed acyclic query graph: vertices are logical operators, edges are data
// streams (paper §2.1, Figure 1 step ①).
#ifndef SRC_DATAFLOW_LOGICAL_GRAPH_H_
#define SRC_DATAFLOW_LOGICAL_GRAPH_H_

#include <string>
#include <vector>

#include "src/dataflow/operator.h"

namespace capsys {

class LogicalGraph {
 public:
  LogicalGraph() = default;
  explicit LogicalGraph(std::string name) : name_(std::move(name)) {}

  // Adds an operator and returns its id. Parallelism defaults to 1 and can be overridden
  // later by the auto-scaling controller via SetParallelism.
  OperatorId AddOperator(const std::string& name, OperatorKind kind,
                         const OperatorProfile& profile, int parallelism = 1);

  // Adds a stream from `from` to `to`. Both operators must already exist.
  void AddEdge(OperatorId from, OperatorId to, PartitionScheme scheme = PartitionScheme::kHash);

  void SetParallelism(OperatorId op, int parallelism);
  void SetParallelism(const std::vector<int>& parallelism);

  int num_operators() const { return static_cast<int>(operators_.size()); }
  int total_parallelism() const;
  std::vector<int> Parallelism() const;  // per operator, in id order

  const LogicalOperator& op(OperatorId id) const { return operators_[static_cast<size_t>(id)]; }
  LogicalOperator& mutable_op(OperatorId id) { return operators_[static_cast<size_t>(id)]; }
  const std::vector<LogicalOperator>& operators() const { return operators_; }
  const std::vector<LogicalEdge>& edges() const { return edges_; }

  std::vector<OperatorId> Upstreams(OperatorId id) const;
  std::vector<OperatorId> Downstreams(OperatorId id) const;
  std::vector<OperatorId> SourceIds() const;
  std::vector<OperatorId> SinkIds() const;

  // Operators in topological order. CHECK-fails if the graph has a cycle.
  std::vector<OperatorId> TopologicalOrder() const;

  // Validates DAG-ness and forward-edge parallelism compatibility; returns an error
  // description or empty string when valid.
  std::string Validate() const;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // Merges `other` into this graph (disjoint union), returning the operator-id offset that
  // was applied to `other`'s ids. Used by the multi-tenant experiment, which treats all six
  // queries as a single dataflow graph (paper §6.2.2).
  OperatorId Merge(const LogicalGraph& other);

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<LogicalOperator> operators_;
  std::vector<LogicalEdge> edges_;
};

// Shrinks `graph` until its total parallelism fits `free_slots`: repeatedly takes one task
// off the widest operator (lowest id on ties). Operators joined by forward edges keep equal
// parallelism, so they shrink together. Returns false when parallelism 1 everywhere still
// does not fit; `graph` is then left at that floor.
bool FitParallelism(LogicalGraph& graph, int free_slots);

}  // namespace capsys

#endif  // SRC_DATAFLOW_LOGICAL_GRAPH_H_
