#include "src/dataflow/placement.h"

#include <algorithm>
#include <map>

#include "src/common/logging.h"
#include "src/common/str.h"

namespace capsys {

std::string Placement::Validate(const PhysicalGraph& graph, const Cluster& cluster) const {
  if (static_cast<int>(assignment_.size()) != graph.num_tasks()) {
    return Sprintf("plan covers %zu tasks but graph has %d", assignment_.size(),
                   graph.num_tasks());
  }
  std::vector<int> load(static_cast<size_t>(cluster.num_workers()), 0);
  for (size_t t = 0; t < assignment_.size(); ++t) {
    WorkerId w = assignment_[t];
    if (w == kInvalidId) {
      return Sprintf("task %zu is unassigned", t);
    }
    if (w < 0 || w >= cluster.num_workers()) {
      return Sprintf("task %zu assigned to invalid worker %d", t, w);
    }
    ++load[static_cast<size_t>(w)];
  }
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    if (load[static_cast<size_t>(w)] > cluster.worker(w).spec.slots) {
      return Sprintf("worker %d has %d tasks but only %d slots", w, load[static_cast<size_t>(w)],
                     cluster.worker(w).spec.slots);
    }
  }
  return "";
}

std::vector<int> Placement::LoadByWorker(const Cluster& cluster) const {
  std::vector<int> load(static_cast<size_t>(cluster.num_workers()), 0);
  for (WorkerId w : assignment_) {
    if (w != kInvalidId) {
      ++load[static_cast<size_t>(w)];
    }
  }
  return load;
}

double Placement::RemoteFraction(const PhysicalGraph& graph, TaskId t) const {
  const auto& downs = graph.DownstreamChannels(t);
  if (downs.empty()) {
    return 0.0;
  }
  int remote = 0;
  WorkerId wt = WorkerOf(t);
  for (ChannelId c : downs) {
    if (WorkerOf(graph.channel(c).to) != wt) {
      ++remote;
    }
  }
  return static_cast<double>(remote) / static_cast<double>(downs.size());
}

int Placement::ColocationDegree(const PhysicalGraph& graph, const Cluster& cluster,
                                OperatorId op) const {
  std::vector<int> count(static_cast<size_t>(cluster.num_workers()), 0);
  int best = 0;
  for (TaskId t : graph.TasksOf(op)) {
    WorkerId w = WorkerOf(t);
    if (w != kInvalidId) {
      best = std::max(best, ++count[static_cast<size_t>(w)]);
    }
  }
  return best;
}

std::string Placement::CanonicalKey(const PhysicalGraph& graph, const Cluster& cluster) const {
  // Per worker, build the sorted list of operator ids of its tasks; then sort the worker
  // descriptors. Equal keys <=> identical plans up to worker permutation.
  std::vector<std::string> worker_keys(static_cast<size_t>(cluster.num_workers()));
  std::vector<std::vector<int>> ops(static_cast<size_t>(cluster.num_workers()));
  for (size_t t = 0; t < assignment_.size(); ++t) {
    WorkerId w = assignment_[t];
    if (w != kInvalidId) {
      ops[static_cast<size_t>(w)].push_back(graph.task(static_cast<TaskId>(t)).op);
    }
  }
  for (size_t w = 0; w < ops.size(); ++w) {
    std::sort(ops[w].begin(), ops[w].end());
    // Prefix the worker's hardware signature: heterogeneous workers are only
    // interchangeable with workers of identical capacity.
    const auto& spec = cluster.worker(static_cast<WorkerId>(w)).spec;
    std::string key = Sprintf("[%d %.17g %.17g %.17g]", spec.slots, spec.cpu_capacity,
                              spec.io_bandwidth_bps, spec.net_bandwidth_bps);
    for (int o : ops[w]) {
      key += Sprintf("%d,", o);
    }
    worker_keys[w] = key;
  }
  std::sort(worker_keys.begin(), worker_keys.end());
  return Join(worker_keys, "|");
}

std::string Placement::ToString(const PhysicalGraph& graph) const {
  std::map<WorkerId, std::vector<std::string>> by_worker;
  for (size_t t = 0; t < assignment_.size(); ++t) {
    const Task& task = graph.task(static_cast<TaskId>(t));
    by_worker[assignment_[t]].push_back(
        Sprintf("%s.%d", graph.logical().op(task.op).name.c_str(), task.index));
  }
  std::vector<std::string> parts;
  for (const auto& [w, names] : by_worker) {
    parts.push_back(Sprintf("w%d:{%s}", w, Join(names, ",").c_str()));
  }
  return Join(parts, " ");
}

}  // namespace capsys
