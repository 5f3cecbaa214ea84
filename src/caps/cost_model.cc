#include "src/caps/cost_model.h"

#include <algorithm>

#include "src/common/logging.h"

namespace capsys {
namespace {

constexpr double kEps = 1e-12;

// Sum of the `s` largest values in `values`.
double TopSum(std::vector<double> values, int s) {
  s = std::min<int>(s, static_cast<int>(values.size()));
  std::partial_sort(values.begin(), values.begin() + s, values.end(), std::greater<>());
  double sum = 0.0;
  for (int i = 0; i < s; ++i) {
    sum += values[static_cast<size_t>(i)];
  }
  return sum;
}

}  // namespace

CostModel::CostModel(const PhysicalGraph& graph, const Cluster& cluster,
                     std::vector<ResourceVector> demands, CostModelOptions options)
    : graph_(graph), cluster_(cluster), demands_(std::move(demands)), options_(options) {
  CAPSYS_CHECK(demands_.size() == static_cast<size_t>(graph.num_tasks()));
  CAPSYS_CHECK(cluster.num_workers() >= 1);
  int s = cluster.slots_per_worker();

  // Per-worker accumulation scale: identity in the paper's absolute model, 1/capacity when
  // normalizing for heterogeneous hardware.
  worker_scale_.resize(static_cast<size_t>(cluster.num_workers()), ResourceVector{1, 1, 1});
  worker_capacity_.resize(static_cast<size_t>(cluster.num_workers()));
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    const auto& spec = cluster.worker(w).spec;
    ResourceVector capacity{std::max(spec.cpu_capacity, kEps),
                            std::max(spec.io_bandwidth_bps, kEps),
                            std::max(spec.net_bandwidth_bps, kEps)};
    auto& scale = worker_scale_[static_cast<size_t>(w)];
    if (options_.normalize_by_capacity) {
      scale.cpu = 1.0 / capacity.cpu;
      scale.io = 1.0 / capacity.io;
      scale.net = 1.0 / capacity.net;
    }
    auto& scaled = worker_capacity_[static_cast<size_t>(w)];
    scaled.cpu = capacity.cpu * scale.cpu;
    scaled.io = capacity.io * scale.io;
    scaled.net = capacity.net * scale.net;
  }

  std::vector<double> cpu;
  std::vector<double> io;
  std::vector<double> net;
  cpu.reserve(demands_.size());
  io.reserve(demands_.size());
  net.reserve(demands_.size());
  double cpu_total = 0.0;
  double io_total = 0.0;
  for (const auto& d : demands_) {
    cpu.push_back(d.cpu);
    io.push_back(d.io);
    net.push_back(d.net);
    cpu_total += d.cpu;
    io_total += d.io;
  }
  if (!options_.normalize_by_capacity) {
    double workers = static_cast<double>(cluster.num_workers());
    l_min_.cpu = cpu_total / workers;  // Eq. 6
    l_min_.io = io_total / workers;
    l_min_.net = 0.0;  // all tasks on one worker => no network traffic (§4.2)
    l_max_.cpu = TopSum(std::move(cpu), s);  // Eq. 7: co-locate T_cpu on one worker
    l_max_.io = TopSum(std::move(io), s);
    l_max_.net = TopSum(std::move(net), s);  // co-locate T_net, |T_net| = s (Table 1)
  } else {
    // Normalized variant: the ideal is equal *utilization* (total demand over total
    // capacity); the worst case is the heaviest tasks stacked on the worker where they
    // cost the most utilization.
    ResourceVector capacity_total;
    for (const auto& w : cluster.workers()) {
      capacity_total.cpu += w.spec.cpu_capacity;
      capacity_total.io += w.spec.io_bandwidth_bps;
      capacity_total.net += w.spec.net_bandwidth_bps;
    }
    l_min_.cpu = cpu_total / std::max(capacity_total.cpu, kEps);
    l_min_.io = io_total / std::max(capacity_total.io, kEps);
    l_min_.net = 0.0;
    double net_topsum = TopSum(net, s);
    double cpu_topsum = TopSum(cpu, s);
    double io_topsum = TopSum(io, s);
    for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
      const auto& scale = worker_scale_[static_cast<size_t>(w)];
      l_max_.cpu = std::max(l_max_.cpu, cpu_topsum * scale.cpu);
      l_max_.io = std::max(l_max_.io, io_topsum * scale.io);
      l_max_.net = std::max(l_max_.net, net_topsum * scale.net);
    }
  }
}

std::vector<ResourceVector> CostModel::WorkerLoads(const Placement& f) const {
  std::vector<ResourceVector> loads(static_cast<size_t>(cluster_.num_workers()));
  for (const auto& t : graph_.tasks()) {
    WorkerId w = f.WorkerOf(t.id);
    CAPSYS_CHECK(w != kInvalidId);
    auto& load = loads[static_cast<size_t>(w)];
    const auto& d = demands_[static_cast<size_t>(t.id)];
    const auto& scale = worker_scale_[static_cast<size_t>(w)];
    load.cpu += d.cpu * scale.cpu;
    load.io += d.io * scale.io;
    load.net += d.net * scale.net * f.RemoteFraction(graph_, t.id);  // Eq. 8
  }
  return loads;
}

double CostModel::Utilization(WorkerId w, const ResourceVector& load) const {
  const ResourceVector& capacity = worker_capacity_[static_cast<size_t>(w)];
  return std::max({load.cpu / capacity.cpu, load.io / capacity.io, load.net / capacity.net});
}

ResourceVector CostModel::Cost(const Placement& f) const {
  auto loads = WorkerLoads(f);
  ResourceVector max_load;
  for (const auto& l : loads) {
    max_load.cpu = std::max(max_load.cpu, l.cpu);
    max_load.io = std::max(max_load.io, l.io);
    max_load.net = std::max(max_load.net, l.net);
  }
  ResourceVector c;
  for (Resource r : kAllResources) {
    c[r] = CostOfLoad(r, max_load[r]);
  }
  return c;
}

double CostModel::CostOfLoad(Resource r, double load) const {
  double span = l_max_[r] - l_min_[r];
  if (span <= kEps) {
    return 0.0;  // all plans equivalent in this dimension (Eq. 4 degenerate case)
  }
  return (load - l_min_[r]) / span;
}

ResourceVector CostModel::LoadBound(const ResourceVector& alpha) const {
  ResourceVector bound;
  for (Resource r : kAllResources) {
    double a = alpha[r];
    if (a >= 1.0) {
      bound[r] = 1e300;  // unconstrained
    } else {
      bound[r] = l_min_[r] + a * (l_max_[r] - l_min_[r]);  // Eq. 10
    }
  }
  return bound;
}

ResourceVector CostModel::OperatorDemand(OperatorId op) const {
  ResourceVector total;
  for (TaskId t : graph_.TasksOf(op)) {
    total += demands_[static_cast<size_t>(t)];
  }
  return total;
}

bool BetterCost(const ResourceVector& a, const ResourceVector& b) {
  double ma = a.Max();
  double mb = b.Max();
  if (ma != mb) {
    return ma < mb;
  }
  return a.Sum() < b.Sum();
}

double MaxUtilization(const CostModel& model, const Placement& plan) {
  auto loads = model.WorkerLoads(plan);
  double worst = 0.0;
  for (WorkerId w = 0; w < static_cast<WorkerId>(loads.size()); ++w) {
    worst = std::max(worst, model.Utilization(w, loads[static_cast<size_t>(w)]));
  }
  return worst;
}

}  // namespace capsys
