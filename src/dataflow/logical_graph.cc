#include "src/dataflow/logical_graph.h"

#include <algorithm>
#include <queue>

#include "src/common/logging.h"
#include "src/common/str.h"

namespace capsys {

const char* OperatorKindName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kSource:
      return "source";
    case OperatorKind::kMap:
      return "map";
    case OperatorKind::kFilter:
      return "filter";
    case OperatorKind::kSlidingWindow:
      return "sliding_window";
    case OperatorKind::kTumblingWindowJoin:
      return "tumbling_window_join";
    case OperatorKind::kIncrementalJoin:
      return "incremental_join";
    case OperatorKind::kSessionWindow:
      return "session_window";
    case OperatorKind::kAggregate:
      return "aggregate";
    case OperatorKind::kProcessFunction:
      return "process_function";
    case OperatorKind::kInference:
      return "inference";
    case OperatorKind::kSink:
      return "sink";
  }
  return "?";
}

const char* PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kForward:
      return "forward";
    case PartitionScheme::kHash:
      return "hash";
    case PartitionScheme::kRebalance:
      return "rebalance";
  }
  return "?";
}

OperatorId LogicalGraph::AddOperator(const std::string& name, OperatorKind kind,
                                     const OperatorProfile& profile, int parallelism) {
  CAPSYS_CHECK(parallelism >= 1);
  LogicalOperator op;
  op.id = static_cast<OperatorId>(operators_.size());
  op.name = name;
  op.kind = kind;
  op.profile = profile;
  op.parallelism = parallelism;
  operators_.push_back(op);
  return op.id;
}

void LogicalGraph::AddEdge(OperatorId from, OperatorId to, PartitionScheme scheme) {
  CAPSYS_CHECK(from >= 0 && from < num_operators());
  CAPSYS_CHECK(to >= 0 && to < num_operators());
  CAPSYS_CHECK_MSG(from != to, "self-loops are not allowed");
  edges_.push_back(LogicalEdge{.from = from, .to = to, .scheme = scheme});
}

void LogicalGraph::SetParallelism(OperatorId op, int parallelism) {
  CAPSYS_CHECK(parallelism >= 1);
  operators_[static_cast<size_t>(op)].parallelism = parallelism;
}

void LogicalGraph::SetParallelism(const std::vector<int>& parallelism) {
  CAPSYS_CHECK(parallelism.size() == operators_.size());
  for (size_t i = 0; i < parallelism.size(); ++i) {
    SetParallelism(static_cast<OperatorId>(i), parallelism[i]);
  }
}

int LogicalGraph::total_parallelism() const {
  int total = 0;
  for (const auto& op : operators_) {
    total += op.parallelism;
  }
  return total;
}

std::vector<int> LogicalGraph::Parallelism() const {
  std::vector<int> parallelism;
  parallelism.reserve(operators_.size());
  for (const auto& op : operators_) {
    parallelism.push_back(op.parallelism);
  }
  return parallelism;
}

std::vector<OperatorId> LogicalGraph::Upstreams(OperatorId id) const {
  std::vector<OperatorId> ups;
  for (const auto& e : edges_) {
    if (e.to == id) {
      ups.push_back(e.from);
    }
  }
  return ups;
}

std::vector<OperatorId> LogicalGraph::Downstreams(OperatorId id) const {
  std::vector<OperatorId> downs;
  for (const auto& e : edges_) {
    if (e.from == id) {
      downs.push_back(e.to);
    }
  }
  return downs;
}

std::vector<OperatorId> LogicalGraph::SourceIds() const {
  std::vector<OperatorId> ids;
  for (const auto& op : operators_) {
    if (Upstreams(op.id).empty()) {
      ids.push_back(op.id);
    }
  }
  return ids;
}

std::vector<OperatorId> LogicalGraph::SinkIds() const {
  std::vector<OperatorId> ids;
  for (const auto& op : operators_) {
    if (Downstreams(op.id).empty()) {
      ids.push_back(op.id);
    }
  }
  return ids;
}

std::vector<OperatorId> LogicalGraph::TopologicalOrder() const {
  std::vector<int> indegree(operators_.size(), 0);
  for (const auto& e : edges_) {
    ++indegree[static_cast<size_t>(e.to)];
  }
  std::queue<OperatorId> ready;
  for (size_t i = 0; i < operators_.size(); ++i) {
    if (indegree[i] == 0) {
      ready.push(static_cast<OperatorId>(i));
    }
  }
  std::vector<OperatorId> order;
  order.reserve(operators_.size());
  while (!ready.empty()) {
    OperatorId id = ready.front();
    ready.pop();
    order.push_back(id);
    for (OperatorId d : Downstreams(id)) {
      if (--indegree[static_cast<size_t>(d)] == 0) {
        ready.push(d);
      }
    }
  }
  CAPSYS_CHECK_MSG(order.size() == operators_.size(), "graph has a cycle");
  return order;
}

std::string LogicalGraph::Validate() const {
  if (operators_.empty()) {
    return "graph has no operators";
  }
  // Cycle check via Kahn's algorithm (without the CHECK).
  std::vector<int> indegree(operators_.size(), 0);
  for (const auto& e : edges_) {
    ++indegree[static_cast<size_t>(e.to)];
  }
  std::queue<OperatorId> ready;
  for (size_t i = 0; i < operators_.size(); ++i) {
    if (indegree[i] == 0) {
      ready.push(static_cast<OperatorId>(i));
    }
  }
  size_t visited = 0;
  while (!ready.empty()) {
    OperatorId id = ready.front();
    ready.pop();
    ++visited;
    for (OperatorId d : Downstreams(id)) {
      if (--indegree[static_cast<size_t>(d)] == 0) {
        ready.push(d);
      }
    }
  }
  if (visited != operators_.size()) {
    return "graph has a cycle";
  }
  for (const auto& e : edges_) {
    if (e.scheme == PartitionScheme::kForward &&
        op(e.from).parallelism != op(e.to).parallelism) {
      return Sprintf("forward edge %s->%s requires equal parallelism (%d vs %d)",
                     op(e.from).name.c_str(), op(e.to).name.c_str(), op(e.from).parallelism,
                     op(e.to).parallelism);
    }
  }
  return "";
}

OperatorId LogicalGraph::Merge(const LogicalGraph& other) {
  OperatorId offset = static_cast<OperatorId>(operators_.size());
  for (const auto& op : other.operators_) {
    LogicalOperator copy = op;
    copy.id = static_cast<OperatorId>(operators_.size());
    copy.name = other.name_.empty() ? op.name : other.name_ + "/" + op.name;
    operators_.push_back(copy);
  }
  for (const auto& e : other.edges_) {
    edges_.push_back(LogicalEdge{.from = e.from + offset, .to = e.to + offset, .scheme = e.scheme});
  }
  return offset;
}

std::string LogicalGraph::ToString() const {
  std::vector<std::string> parts;
  for (const auto& op : operators_) {
    parts.push_back(Sprintf("%s(x%d)", op.name.c_str(), op.parallelism));
  }
  return Sprintf("%s: %s, %zu edges", name_.c_str(), Join(parts, " ").c_str(), edges_.size());
}

bool FitParallelism(LogicalGraph& graph, int free_slots) {
  // Forward-joined groups as a union-find forest over operator ids.
  std::vector<OperatorId> group(static_cast<size_t>(graph.num_operators()));
  for (OperatorId o = 0; o < graph.num_operators(); ++o) {
    group[static_cast<size_t>(o)] = o;
  }
  auto root = [&group](OperatorId o) {
    while (group[static_cast<size_t>(o)] != o) {
      o = group[static_cast<size_t>(o)];
    }
    return o;
  };
  for (const auto& e : graph.edges()) {
    if (e.scheme == PartitionScheme::kForward) {
      group[static_cast<size_t>(root(e.from))] = root(e.to);
    }
  }
  while (graph.total_parallelism() > free_slots) {
    OperatorId widest = kInvalidId;
    for (const auto& op : graph.operators()) {
      if (op.parallelism > 1 &&
          (widest == kInvalidId || op.parallelism > graph.op(widest).parallelism)) {
        widest = op.id;
      }
    }
    if (widest == kInvalidId) {
      return false;
    }
    int p = graph.op(widest).parallelism - 1;
    OperatorId shrinking = root(widest);
    for (OperatorId o = 0; o < graph.num_operators(); ++o) {
      if (root(o) == shrinking) {
        graph.SetParallelism(o, std::min(graph.op(o).parallelism, p));
      }
    }
  }
  return true;
}

}  // namespace capsys
