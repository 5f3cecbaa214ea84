#include "src/odrp/odrp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "src/common/logging.h"
#include "src/common/str.h"

namespace capsys {
namespace {

constexpr double kEps = 1e-12;
// Propagation delay added per fully-remote logical hop (seconds); all links are equal.
constexpr double kLinkDelayS = 0.001;

// Placement-independent objective terms for one parallelism vector.
struct VectorScore {
  double base = 0.0;  // response (placement-free part) + cost + sustain, weighted
  std::vector<int> parallelism;
};

}  // namespace

OdrpWeights OdrpWeights::Default() { return OdrpWeights{1.0, 1.0, 1.0, 0.0}; }

OdrpWeights OdrpWeights::Weighted() { return OdrpWeights{0.2, 1.5, 1.0, 5.0}; }

OdrpWeights OdrpWeights::Latency() { return OdrpWeights{1.0, 0.0, 0.0, 0.0}; }

std::string OdrpResult::ToString() const {
  std::vector<std::string> ps;
  for (int p : parallelism) {
    ps.push_back(Sprintf("%d", p));
  }
  return Sprintf("found=%d parallelism=[%s] slots=%d objective=%.4f time=%.2fs nodes=%llu%s",
                 found ? 1 : 0, Join(ps, ",").c_str(), slots_used, objective, decision_time_s,
                 static_cast<unsigned long long>(nodes),
                 budget_exhausted ? " BUDGET_EXHAUSTED" : "");
}

namespace {

// Branch-and-bound placement solver for one fixed parallelism vector. Enumerates distinct
// plans (up to worker symmetry) operator by operator, accumulating the placement-dependent
// objective terms (network traffic and remote-hop delays) and pruning when the partial
// objective cannot beat the incumbent.
class PlacementSolver {
 public:
  PlacementSolver(const LogicalGraph& graph, const Cluster& cluster,
                  const std::vector<OperatorRates>& rates, const OdrpOptions& options,
                  double net_ref, double response_ref)
      : graph_(graph),
        cluster_(cluster),
        options_(options),
        net_ref_(net_ref),
        response_ref_(response_ref) {
    int num_ops = graph.num_operators();
    per_task_net_.resize(static_cast<size_t>(num_ops), 0.0);
    for (const auto& op : graph.operators()) {
      double out_rate = rates[static_cast<size_t>(op.id)].output_rate / op.parallelism;
      per_task_net_[static_cast<size_t>(op.id)] = out_rate * op.profile.out_bytes_per_record;
    }
  }

  // Runs the DFS; updates `best_objective` / `best_counts` when improving on
  // `base_objective + placement terms`. Returns false if the budget was exhausted.
  bool Solve(double base_objective, double& best_objective,
             std::vector<std::vector<int>>& best_counts, uint64_t& nodes, uint64_t max_nodes,
             const std::chrono::steady_clock::time_point& deadline) {
    base_ = base_objective;
    best_ = &best_objective;
    best_counts_ = &best_counts;
    nodes_ = &nodes;
    max_nodes_ = max_nodes;
    deadline_ = deadline;
    exhausted_ = false;
    int w = cluster_.num_workers();
    used_.assign(static_cast<size_t>(w), 0);
    op_count_.assign(static_cast<size_t>(w),
                     std::vector<int>(static_cast<size_t>(graph_.num_operators()), 0));
    PlaceOp(0, 0.0);
    return !exhausted_;
  }

 private:
  // Placement-dependent objective accumulated so far (network + remote-delay), weighted.
  void PlaceOp(int op_idx, double partial) {
    if (exhausted_) {
      return;
    }
    if (op_idx == graph_.num_operators()) {
      double total = base_ + partial;
      if (total < *best_) {
        *best_ = total;
        *best_counts_ = op_count_;
      }
      return;
    }
    if (options_.break_symmetry) {
      Inner(op_idx, 0, graph_.op(op_idx).parallelism, partial);
    } else {
      // Faithful ILP mode: one x_{t,w} binary per (task, worker) pair — identical tasks are
      // distinct decision variables, exactly as in the CPLEX formulation, so the tree the
      // solver must close is the full joint assignment space.
      PerTask(op_idx, 0, partial);
    }
  }

  // Per-task branching (ILP-faithful): assigns the op's tasks one at a time, trying every
  // worker with a free slot.
  void PerTask(int op_idx, int task_idx, double partial) {
    if (exhausted_) {
      return;
    }
    if (task_idx == graph_.op(op_idx).parallelism) {
      PlaceOp(op_idx + 1, partial);
      return;
    }
    if (((*nodes_)++ & 0xfff) == 0 &&
        (std::chrono::steady_clock::now() > deadline_ || *nodes_ > max_nodes_)) {
      exhausted_ = true;
      return;
    }
    int num_workers = cluster_.num_workers();
    for (WorkerId w = 0; w < num_workers && !exhausted_; ++w) {
      if (used_[static_cast<size_t>(w)] >= cluster_.worker(w).spec.slots) {
        continue;
      }
      double delta = PlacementDelta(op_idx, w, 1);
      if (base_ + partial + delta >= *best_) {
        continue;
      }
      used_[static_cast<size_t>(w)] += 1;
      op_count_[static_cast<size_t>(w)][static_cast<size_t>(op_idx)] += 1;
      PerTask(op_idx, task_idx + 1, partial + delta);
      op_count_[static_cast<size_t>(w)][static_cast<size_t>(op_idx)] -= 1;
      used_[static_cast<size_t>(w)] -= 1;
    }
  }

  void Inner(int op_idx, WorkerId w, int remaining, double partial) {
    if (exhausted_) {
      return;
    }
    if (((*nodes_)++ & 0xfff) == 0 &&
        (std::chrono::steady_clock::now() > deadline_ || *nodes_ > max_nodes_)) {
      exhausted_ = true;
      return;
    }
    int num_workers = cluster_.num_workers();
    if (w == num_workers) {
      if (remaining == 0) {
        PlaceOp(op_idx + 1, partial);
      }
      return;
    }
    int cap = cluster_.worker(w).spec.slots - used_[static_cast<size_t>(w)];
    // Optional worker-symmetry duplicate rule (same as the CAPS inner search).
    int bound = remaining;
    if (options_.break_symmetry) {
      for (WorkerId w2 = w - 1; w2 >= 0; --w2) {
        bool equal = true;
        for (size_t j = 0; j < op_count_[static_cast<size_t>(w2)].size(); ++j) {
          if (static_cast<int>(j) != op_idx &&
              op_count_[static_cast<size_t>(w2)][j] != op_count_[static_cast<size_t>(w)][j]) {
            equal = false;
            break;
          }
        }
        if (equal) {
          bound = op_count_[static_cast<size_t>(w2)][static_cast<size_t>(op_idx)];
          break;
        }
      }
    }
    int later_cap = 0;
    for (WorkerId v = w + 1; v < num_workers; ++v) {
      later_cap += cluster_.worker(v).spec.slots - used_[static_cast<size_t>(v)];
    }
    int lo = std::max(0, remaining - later_cap);
    int hi = std::min({cap, remaining, bound});
    for (int c = lo; c <= hi && !exhausted_; ++c) {
      double delta = c > 0 ? PlacementDelta(op_idx, w, c) : 0.0;
      if (base_ + partial + delta >= *best_) {
        continue;  // bound: placement terms only grow
      }
      used_[static_cast<size_t>(w)] += c;
      op_count_[static_cast<size_t>(w)][static_cast<size_t>(op_idx)] += c;
      Inner(op_idx, w + 1, remaining - c, partial + delta);
      op_count_[static_cast<size_t>(w)][static_cast<size_t>(op_idx)] -= c;
      used_[static_cast<size_t>(w)] -= c;
    }
  }

  // Weighted objective increase caused by placing `c` tasks of `op_idx` on worker `w`:
  // resolved remote channels to already-placed neighbors contribute network traffic and
  // remote-hop delay.
  double PlacementDelta(int op_idx, WorkerId w, int c) {
    double net_bytes = 0.0;   // added cross-worker bytes/s
    double delay_frac = 0.0;  // added remote channel fraction (for link delay)
    for (const auto& e : graph_.edges()) {
      if (e.from == op_idx) {
        // Outbound from the new tasks to placed downstream tasks.
        int placed = 0;
        int here = 0;
        for (size_t v = 0; v < op_count_.size(); ++v) {
          placed += op_count_[v][static_cast<size_t>(e.to)];
          if (static_cast<WorkerId>(v) == w) {
            here = op_count_[v][static_cast<size_t>(e.to)];
          }
        }
        if (placed == 0) {
          continue;
        }
        int peer_p = graph_.op(e.to).parallelism;
        double frac = static_cast<double>(placed - here) / peer_p;
        net_bytes += c * per_task_net_[static_cast<size_t>(op_idx)] * frac;
        delay_frac += frac * c / graph_.op(op_idx).parallelism;
      } else if (e.to == op_idx) {
        // Inbound: placed upstream tasks gain remote channels to the new tasks. Each
        // upstream task sends c/my_p of its output to the new tasks remotely.
        int up_p = graph_.op(e.from).parallelism;
        int my_p = graph_.op(op_idx).parallelism;
        for (size_t v = 0; v < op_count_.size(); ++v) {
          int up_here = op_count_[v][static_cast<size_t>(e.from)];
          if (up_here == 0 || static_cast<WorkerId>(v) == w) {
            continue;
          }
          double frac = static_cast<double>(c) / my_p;
          net_bytes += up_here * per_task_net_[static_cast<size_t>(e.from)] * frac;
          delay_frac += frac * up_here / up_p;
        }
      }
    }
    double w_net = options_.weights.network * net_bytes / std::max(net_ref_, kEps);
    double w_delay = options_.weights.response_time * kLinkDelayS * delay_frac /
                     std::max(response_ref_, kEps);
    return w_net + w_delay;
  }

  const LogicalGraph& graph_;
  const Cluster& cluster_;
  const OdrpOptions& options_;
  double net_ref_;
  double response_ref_;
  std::vector<double> per_task_net_;

  double base_ = 0.0;
  double* best_ = nullptr;
  std::vector<std::vector<int>>* best_counts_ = nullptr;
  uint64_t* nodes_ = nullptr;
  uint64_t max_nodes_ = 0;
  std::chrono::steady_clock::time_point deadline_;
  bool exhausted_ = false;
  std::vector<int> used_;
  std::vector<std::vector<int>> op_count_;
};

}  // namespace

OdrpResult SolveOdrp(const LogicalGraph& base_graph, const Cluster& cluster,
                     const std::map<OperatorId, double>& source_rates,
                     const OdrpOptions& options) {
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(options.timeout_s));
  OdrpResult result;
  int num_ops = base_graph.num_operators();
  int total_slots = cluster.total_slots();

  // --- Enumerate parallelism vectors, scoring placement-independent terms ---------------
  // Sources keep parallelism sized to their generation demand; replicating sources is not
  // part of ODRP's decision space in our setup, matching "one slot per task" usage.
  std::vector<VectorScore> vectors;
  std::vector<int> current(static_cast<size_t>(num_ops), 1);
  std::vector<OperatorId> ops;
  for (int i = 0; i < num_ops; ++i) {
    ops.push_back(i);
  }

  // Reference scales for normalization.
  double response_ref = 0.0;
  for (const auto& op : base_graph.operators()) {
    response_ref += op.profile.cpu_per_record * 2.0;
  }
  response_ref += kLinkDelayS * static_cast<double>(base_graph.edges().size());

  LogicalGraph scratch = base_graph;
  double net_ref = 0.0;
  {
    auto rates = PropagateRates(base_graph, source_rates);
    for (const auto& op : base_graph.operators()) {
      net_ref += rates[static_cast<size_t>(op.id)].output_rate * op.profile.out_bytes_per_record;
    }
  }

  std::function<void(size_t, int)> enumerate = [&](size_t idx, int used) {
    if (idx == ops.size()) {
      scratch.SetParallelism(current);
      auto rates = PropagateRates(scratch, source_rates);
      // Placement-free objective terms.
      double response = 0.0;
      double overload = 0.0;
      for (const auto& op : scratch.operators()) {
        double lambda = rates[static_cast<size_t>(op.id)].input_rate;
        double exec = op.profile.cpu_per_record;
        double rho = lambda * exec / op.parallelism;
        response += exec * (1.0 + rho);
        overload += std::max(0.0, rho - 1.0);
      }
      double base = options.weights.response_time * response / std::max(response_ref, kEps) +
                    options.weights.resource_cost * static_cast<double>(used) / total_slots +
                    options.weights.sustain * overload;
      vectors.push_back(VectorScore{base, current});
      return;
    }
    const auto& op = base_graph.op(ops[idx]);
    int lo = 1;
    int hi = options.max_parallelism;
    if (op.kind == OperatorKind::kSource || op.kind == OperatorKind::kSink) {
      lo = hi = op.parallelism;  // sources/sinks keep their configured parallelism
    }
    for (int p = lo; p <= hi; ++p) {
      if (used + p > total_slots) {
        break;
      }
      current[static_cast<size_t>(ops[idx])] = p;
      enumerate(idx + 1, used + p);
    }
    current[static_cast<size_t>(ops[idx])] = 1;
  };
  enumerate(0, 0);

  // Best-first over parallelism vectors: like an ILP solver, good solutions surface early
  // and the remaining budget goes toward proving optimality.
  std::sort(vectors.begin(), vectors.end(),
            [](const VectorScore& a, const VectorScore& b) { return a.base < b.base; });

  double best_objective = 1e300;
  std::vector<int> best_parallelism;
  std::vector<std::vector<int>> best_counts;
  uint64_t nodes = 0;
  bool exhausted = false;

  for (const auto& vs : vectors) {
    if (std::chrono::steady_clock::now() > deadline || nodes > options.max_nodes) {
      exhausted = true;
      break;
    }
    if (vs.base >= best_objective) {
      continue;  // placement terms are non-negative; this vector cannot win
    }
    scratch.SetParallelism(vs.parallelism);
    auto rates = PropagateRates(scratch, source_rates);
    PlacementSolver solver(scratch, cluster, rates, options, net_ref, response_ref);
    std::vector<std::vector<int>> counts;
    double before = best_objective;
    if (!solver.Solve(vs.base, best_objective, counts, nodes, options.max_nodes, deadline)) {
      exhausted = true;
    }
    if (best_objective < before) {
      best_parallelism = vs.parallelism;
      best_counts = counts;
    }
    if (exhausted) {
      break;
    }
  }

  result.decision_time_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                         start)
                               .count();
  result.nodes = nodes;
  result.budget_exhausted = exhausted;
  if (best_parallelism.empty()) {
    return result;
  }
  result.found = true;
  result.parallelism = best_parallelism;
  result.objective = best_objective;
  for (int p : best_parallelism) {
    result.slots_used += p;
  }
  // Materialize the placement from per-worker operator counts.
  scratch.SetParallelism(best_parallelism);
  PhysicalGraph graph = PhysicalGraph::Expand(scratch);
  Placement plan(graph.num_tasks());
  for (OperatorId o = 0; o < scratch.num_operators(); ++o) {
    const auto& tasks = graph.TasksOf(o);
    size_t next = 0;
    for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
      int c = best_counts[static_cast<size_t>(w)][static_cast<size_t>(o)];
      for (int i = 0; i < c; ++i) {
        plan.Assign(tasks[next++], w);
      }
    }
    CAPSYS_CHECK(next == tasks.size());
  }
  result.placement = plan;
  return result;
}

}  // namespace capsys
