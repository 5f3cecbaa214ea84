#include "src/caps/search.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

constexpr double kEps = 1e-12;

}  // namespace

std::string SearchStats::ToString() const {
  return Sprintf("nodes=%llu leaves=%llu pruned=%llu elapsed=%.4fs%s",
                 static_cast<unsigned long long>(nodes), static_cast<unsigned long long>(leaves),
                 static_cast<unsigned long long>(pruned), elapsed_s,
                 timed_out ? " TIMED_OUT" : "");
}

// Per-branch mutable search state. Copyable so subtrees can be offloaded to pool threads.
//
// The last four fields are *incremental* mirrors of information that older revisions
// recomputed by scanning all workers on every inner-search node; ApplyPlacement and
// UndoPlacement keep them exact (see DESIGN.md "Performance" for the invariants):
//   - op_placed[o]    == sum over workers of op_count[w][o]
//   - op_workers[o]   == the workers with op_count[w][o] > 0, in placement (stack) order
//   - free_slots      == total slot capacity minus sum of used
//   - num_violating   == number of workers whose load breaks the Eq. 10 bound
struct CapsSearch::Ctx {
  std::vector<ResourceVector> load;  // per-worker accumulated load (Eq. 5 / Eq. 8)
  std::vector<int> used;             // slots used per worker
  // Tasks placed per (worker, operator), flattened row-major by worker so the
  // duplicate-elimination compare walks contiguous memory.
  std::vector<int> op_count;
  int num_ops = 0;
  std::vector<int> op_placed;              // total tasks placed per operator
  std::vector<std::vector<WorkerId>> op_workers;  // workers hosting each operator
  int free_slots = 0;
  int num_violating = 0;

  int* counts_of(WorkerId w) { return op_count.data() + static_cast<size_t>(w) * num_ops; }
  const int* counts_of(WorkerId w) const {
    return op_count.data() + static_cast<size_t>(w) * num_ops;
  }
};

bool CapsSearchable(const LogicalGraph& graph) {
  return std::none_of(graph.edges().begin(), graph.edges().end(), [&](const LogicalEdge& e) {
    return e.scheme == PartitionScheme::kForward && graph.op(e.from).parallelism != 1;
  });
}

CapsSearch::CapsSearch(const CostModel& model, SearchOptions options)
    : model_(model), options_(options) {
  const PhysicalGraph& graph = model.graph();
  const LogicalGraph& logical = graph.logical();
  CAPSYS_CHECK_MSG(CapsSearchable(logical),
                   "CAPS requires all-to-all connectivity for parallel operators");

  int num_ops = logical.num_operators();
  op_task_demand_.resize(static_cast<size_t>(num_ops));
  op_downstream_channels_.resize(static_cast<size_t>(num_ops), 0.0);
  op_parallelism_.resize(static_cast<size_t>(num_ops), 0);
  out_edges_.resize(static_cast<size_t>(num_ops));
  in_edges_.resize(static_cast<size_t>(num_ops));
  for (const auto& op : logical.operators()) {
    TaskId first = graph.TasksOf(op.id).front();
    op_task_demand_[static_cast<size_t>(op.id)] =
        model.demands()[static_cast<size_t>(first)];
    op_downstream_channels_[static_cast<size_t>(op.id)] =
        static_cast<double>(graph.DownstreamChannels(first).size());
    op_parallelism_[static_cast<size_t>(op.id)] = op.parallelism;
  }
  // Aggregate logical edges into per-pair channel multiplicities.
  for (const auto& e : logical.edges()) {
    double src_net = op_task_demand_[static_cast<size_t>(e.from)].net;
    double d_src = std::max(1.0, op_downstream_channels_[static_cast<size_t>(e.from)]);
    double share = src_net / d_src;  // U_net(t) / |D(t)| per channel (Eq. 8)
    // Merge with an existing entry for the same peer if present.
    auto add = [share](std::vector<OpEdge>& edges, OperatorId peer) {
      for (auto& oe : edges) {
        if (oe.peer == peer) {
          oe.net_share_per_peer_task += share;
          return;
        }
      }
      edges.push_back(OpEdge{.peer = peer, .net_share_per_peer_task = share});
    };
    add(out_edges_[static_cast<size_t>(e.from)], e.to);
    add(in_edges_[static_cast<size_t>(e.to)], e.from);
  }

  // Operator exploration order (§4.4.2): resource-heavy operators first, ranked by their
  // largest normalized per-dimension demand share.
  order_.resize(static_cast<size_t>(num_ops));
  for (int i = 0; i < num_ops; ++i) {
    order_[static_cast<size_t>(i)] = i;
  }
  if (options_.reorder) {
    ResourceVector total;
    for (int o = 0; o < num_ops; ++o) {
      total += model.OperatorDemand(o);
    }
    auto score = [&](OperatorId o) {
      ResourceVector d = model_.OperatorDemand(o);
      double best = 0.0;
      for (Resource r : kAllResources) {
        if (total[r] > kEps) {
          best = std::max(best, d[r] / total[r]);
        }
      }
      return best;
    };
    std::stable_sort(order_.begin(), order_.end(),
                     [&](OperatorId a, OperatorId b) { return score(a) > score(b); });
  }

  bound_ = model.LoadBound(options_.alpha);

  // Group workers into spec-equivalence classes; only same-class workers are
  // interchangeable for duplicate elimination.
  const Cluster& cluster = model.cluster();
  worker_slots_.resize(static_cast<size_t>(cluster.num_workers()));
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    worker_slots_[static_cast<size_t>(w)] = cluster.worker(w).spec.slots;
    total_slots_ += cluster.worker(w).spec.slots;
  }
  worker_class_.assign(static_cast<size_t>(cluster.num_workers()), 0);
  std::vector<WorkerSpec> classes;
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    const auto& spec = cluster.worker(w).spec;
    int cls = -1;
    for (size_t c = 0; c < classes.size(); ++c) {
      const auto& other = classes[c];
      if (spec.slots == other.slots && spec.cpu_capacity == other.cpu_capacity &&
          spec.io_bandwidth_bps == other.io_bandwidth_bps &&
          spec.net_bandwidth_bps == other.net_bandwidth_bps) {
        cls = static_cast<int>(c);
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(classes.size());
      classes.push_back(spec);
    }
    worker_class_[static_cast<size_t>(w)] = cls;
  }
}

CapsSearch::~CapsSearch() = default;

bool CapsSearch::ShouldStop() {
  if (stop_.load(std::memory_order_relaxed)) {
    return true;
  }
  // Sample the clock occasionally. The gate counts calls *per thread*: gating on the
  // globally shared node counter let a thread skip the deadline check for unbounded
  // stretches under multi-threaded search (it only saw the counter at multiples of 1024 by
  // luck), so timeouts could fire arbitrarily late.
  thread_local uint64_t calls = 0;
  if ((++calls & 0x3ff) == 0) {
    double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                         .count();
    if (elapsed > options_.timeout_s) {
      timed_out_.store(true);
      stop_.store(true);
      return true;
    }
  }
  return false;
}

bool CapsSearch::Violates(const ResourceVector& load) const {
  return load.cpu > bound_.cpu + kEps || load.io > bound_.io + kEps ||
         load.net > bound_.net + kEps;
}

void CapsSearch::ApplyPlacement(Ctx& ctx, size_t layer, WorkerId w, int count) {
  if (count == 0) {
    return;  // no load, slot, or count changes
  }
  OperatorId o = order_[layer];
  const ResourceVector& d = op_task_demand_[static_cast<size_t>(o)];
  const ResourceVector& scale_w = model_.WorkerScale(w);
  auto& load_w = ctx.load[static_cast<size_t>(w)];
  bool w_violated = Violates(load_w);
  load_w.cpu += count * d.cpu * scale_w.cpu;
  load_w.io += count * d.io * scale_w.io;
  // Outbound traffic of the new tasks toward already-placed downstream operators: every
  // channel to a peer task on a different worker is remote.
  for (const auto& e : out_edges_[static_cast<size_t>(o)]) {
    int peer_placed = ctx.op_placed[static_cast<size_t>(e.peer)];
    if (peer_placed == 0) {
      continue;  // downstream operator not placed yet; resolved at its own layer
    }
    int peer_here = ctx.counts_of(w)[static_cast<size_t>(e.peer)];
    load_w.net += count * e.net_share_per_peer_task * (peer_placed - peer_here) * scale_w.net;
  }
  // Inbound side: already-placed upstream tasks gain remote channels to the new tasks.
  // Only workers actually hosting the peer are visited (ctx.op_workers).
  for (const auto& e : in_edges_[static_cast<size_t>(o)]) {
    for (WorkerId v : ctx.op_workers[static_cast<size_t>(e.peer)]) {
      if (v == w) {
        continue;  // local channels do not consume the NIC
      }
      int peer_tasks = ctx.counts_of(v)[static_cast<size_t>(e.peer)];
      auto& load_v = ctx.load[static_cast<size_t>(v)];
      bool v_violated = Violates(load_v);
      load_v.net += peer_tasks * e.net_share_per_peer_task * count * model_.WorkerScale(v).net;
      ctx.num_violating += static_cast<int>(Violates(load_v)) - static_cast<int>(v_violated);
    }
  }
  ctx.num_violating += static_cast<int>(Violates(load_w)) - static_cast<int>(w_violated);
  ctx.used[static_cast<size_t>(w)] += count;
  ctx.free_slots -= count;
  int& here = ctx.counts_of(w)[static_cast<size_t>(o)];
  if (here == 0) {
    ctx.op_workers[static_cast<size_t>(o)].push_back(w);
  }
  here += count;
  ctx.op_placed[static_cast<size_t>(o)] += count;
}

void CapsSearch::UndoPlacement(Ctx& ctx, size_t layer, WorkerId w, int count) {
  if (count == 0) {
    return;
  }
  OperatorId o = order_[layer];
  ctx.op_placed[static_cast<size_t>(o)] -= count;
  int& here = ctx.counts_of(w)[static_cast<size_t>(o)];
  here -= count;
  if (here == 0) {
    // Apply/undo pairs nest LIFO within the operator's layer, so `w` is the most recently
    // pushed host.
    ctx.op_workers[static_cast<size_t>(o)].pop_back();
  }
  ctx.used[static_cast<size_t>(w)] -= count;
  ctx.free_slots += count;
  const ResourceVector& d = op_task_demand_[static_cast<size_t>(o)];
  const ResourceVector& scale_w = model_.WorkerScale(w);
  auto& load_w = ctx.load[static_cast<size_t>(w)];
  bool w_violated = Violates(load_w);
  load_w.cpu -= count * d.cpu * scale_w.cpu;
  load_w.io -= count * d.io * scale_w.io;
  for (const auto& e : out_edges_[static_cast<size_t>(o)]) {
    int peer_placed = ctx.op_placed[static_cast<size_t>(e.peer)];
    if (peer_placed == 0) {
      continue;
    }
    int peer_here = ctx.counts_of(w)[static_cast<size_t>(e.peer)];
    load_w.net -= count * e.net_share_per_peer_task * (peer_placed - peer_here) * scale_w.net;
  }
  for (const auto& e : in_edges_[static_cast<size_t>(o)]) {
    for (WorkerId v : ctx.op_workers[static_cast<size_t>(e.peer)]) {
      if (v == w) {
        continue;
      }
      int peer_tasks = ctx.counts_of(v)[static_cast<size_t>(e.peer)];
      auto& load_v = ctx.load[static_cast<size_t>(v)];
      bool v_violated = Violates(load_v);
      load_v.net -= peer_tasks * e.net_share_per_peer_task * count * model_.WorkerScale(v).net;
      ctx.num_violating += static_cast<int>(Violates(load_v)) - static_cast<int>(v_violated);
    }
  }
  ctx.num_violating += static_cast<int>(Violates(load_w)) - static_cast<int>(w_violated);
}

void CapsSearch::PlaceOp(Ctx& ctx, size_t layer) {
  if (ShouldStop()) {
    return;
  }
  if (layer == order_.size()) {
    AtLeaf(ctx);
    return;
  }
  int later_cap = ctx.free_slots - (worker_slots_[0] - ctx.used[0]);
  InnerSearch(ctx, layer, 0, op_parallelism_[static_cast<size_t>(order_[layer])], later_cap);
}

void CapsSearch::InnerSearch(Ctx& ctx, size_t layer, WorkerId w, int remaining,
                             int later_cap) {
  nodes_.fetch_add(1, std::memory_order_relaxed);
  if (ShouldStop()) {
    return;
  }
  int num_workers = static_cast<int>(ctx.load.size());
  if (w == num_workers) {
    if (remaining == 0) {
      size_t next = layer + 1;
      if (pool_ != nullptr && next < order_.size() && pool_->HasIdleThread()) {
        // Dynamic work offloading (§5.1): hand the subtree to an idle thread.
        auto copy = std::make_shared<Ctx>(ctx);
        pool_->Submit([this, copy, next] { PlaceOp(*copy, next); });
      } else {
        PlaceOp(ctx, next);
      }
    }
    return;
  }

  OperatorId o = order_[layer];
  int cap = worker_slots_[static_cast<size_t>(w)] - ctx.used[static_cast<size_t>(w)];
  // Duplicate elimination: if an earlier worker has an identical task multiset (ignoring
  // the current operator), this worker may receive at most as many tasks as it did.
  int bound = remaining;
  if (options_.eliminate_duplicates) {
    for (WorkerId w2 = w - 1; w2 >= 0; --w2) {
      if (worker_class_[static_cast<size_t>(w2)] != worker_class_[static_cast<size_t>(w)]) {
        continue;  // different hardware: not interchangeable
      }
      bool equal = true;
      const int* a = ctx.counts_of(w2);
      const int* b = ctx.counts_of(w);
      for (size_t j = 0; j < static_cast<size_t>(ctx.num_ops); ++j) {
        if (static_cast<OperatorId>(j) != o && a[j] != b[j]) {
          equal = false;
          break;
        }
      }
      if (equal) {
        // op_count[w2][o] is exactly the count w2 received at this layer (each operator is
        // placed in a single layer).
        bound = a[static_cast<size_t>(o)];
        break;
      }
    }
  }
  // Lower bound: remaining tasks must fit into this and later workers.
  int lo = std::max(0, remaining - later_cap);
  int hi = std::min({cap, remaining, bound});
  if (lo > hi) {
    return;
  }

  // Tries one task count for this worker; returns false once the search should stop.
  // Worker loads grow monotonically in c, so once a count violates the bounds every larger
  // count does too (dead_above).
  int dead_above = hi + 1;
  auto try_count = [&](int c) {
    if (c < dead_above) {
      ApplyPlacement(ctx, layer, w, c);
      if (c > 0 && ctx.num_violating > 0) {
        pruned_.fetch_add(1, std::memory_order_relaxed);
        dead_above = c;
      } else {
        // Free capacity of workers beyond w+1 is untouched by placements at w.
        int next_later = w + 1 < num_workers
                             ? later_cap - (worker_slots_[static_cast<size_t>(w) + 1] -
                                            ctx.used[static_cast<size_t>(w) + 1])
                             : 0;
        InnerSearch(ctx, layer, w + 1, remaining - c, next_later);
      }
      UndoPlacement(ctx, layer, w, c);
    }
    return !stop_.load(std::memory_order_relaxed);
  };

  // Value ordering: try counts closest to the proportional (balanced) share first, so the
  // first complete plan the DFS reaches is already near-balanced. This makes find-first
  // searches and time-budgeted searches anytime-good without changing the explored set.
  // The candidate sequence is generated in place — no per-node ordering buffer.
  if (options_.value_ordering) {
    int ideal = (remaining + (num_workers - w) - 1) / (num_workers - w);
    ideal = std::clamp(ideal, lo, hi);
    if (!try_count(ideal)) {
      return;
    }
    for (int d = 1; ideal - d >= lo || ideal + d <= hi; ++d) {
      if (ideal - d >= lo && !try_count(ideal - d)) {
        return;
      }
      if (ideal + d <= hi && !try_count(ideal + d)) {
        return;
      }
    }
  } else {
    for (int c = lo; c <= hi; ++c) {
      if (!try_count(c)) {
        return;
      }
    }
  }
}

void CapsSearch::AtLeaf(Ctx& ctx) {
  leaves_.fetch_add(1, std::memory_order_relaxed);
  // Cost from the incrementally tracked loads.
  ResourceVector max_load;
  for (const auto& l : ctx.load) {
    max_load.cpu = std::max(max_load.cpu, l.cpu);
    max_load.io = std::max(max_load.io, l.io);
    max_load.net = std::max(max_load.net, l.net);
  }
  ResourceVector cost;
  for (Resource r : kAllResources) {
    cost[r] = model_.CostOfLoad(r, max_load[r]);
  }

  // The task assignment is only materialized for plans the result actually retains
  // (new best, pareto member, or collected) — most leaves are dominated and need no
  // Placement allocation. Tasks of each operator go to workers in worker-index order.
  Placement plan;
  bool built = false;
  auto build_plan = [&] {
    if (built) {
      return;
    }
    built = true;
    const PhysicalGraph& graph = model_.graph();
    plan = Placement(graph.num_tasks());
    int num_workers = static_cast<int>(ctx.load.size());
    for (OperatorId o = 0; o < graph.logical().num_operators(); ++o) {
      const auto& tasks = graph.TasksOf(o);
      size_t next = 0;
      for (WorkerId w = 0; w < num_workers; ++w) {
        int c = ctx.counts_of(w)[static_cast<size_t>(o)];
        for (int i = 0; i < c; ++i) {
          plan.Assign(tasks[next++], w);
        }
      }
      CAPSYS_CHECK(next == tasks.size());
    }
  };

  std::lock_guard<std::mutex> lock(result_mu_);
  if (!result_.found || BetterCost(cost, result_.best.cost)) {
    build_plan();
    result_.best = ScoredPlan{plan, cost};
  }
  result_.found = true;
  // Maintain the pareto front (skip plans whose cost duplicates an existing entry).
  bool dominated = false;
  for (const auto& p : result_.pareto) {
    if (p.cost.AllLeq(cost)) {
      dominated = true;
      break;
    }
  }
  if (!dominated) {
    result_.pareto.erase(std::remove_if(result_.pareto.begin(), result_.pareto.end(),
                                        [&cost](const ScoredPlan& p) {
                                          return cost.Dominates(p.cost);
                                        }),
                         result_.pareto.end());
    if (result_.pareto.size() < 4096) {
      build_plan();
      result_.pareto.push_back(ScoredPlan{plan, cost});
    }
  }
  if (options_.collect_plans && result_.collected.size() < options_.max_collected) {
    build_plan();
    result_.collected.push_back(ScoredPlan{plan, cost});
  }
  if (options_.find_first) {
    stop_.store(true);
  }
}

SearchResult CapsSearch::Run() {
  Span span("caps.search.run");
  span.AddAttr("threads", options_.num_threads);
  span.AddAttr("find_first", options_.find_first ? "true" : "false");
  span.AddAttr("alpha", options_.alpha.ToString());
  start_ = std::chrono::steady_clock::now();
  const Cluster& cluster = model_.cluster();
  CAPSYS_CHECK_MSG(cluster.total_slots() >= model_.graph().num_tasks(),
                   "cluster has fewer slots than tasks");
  Ctx root;
  int num_ops = model_.graph().logical().num_operators();
  root.load.assign(static_cast<size_t>(cluster.num_workers()), ResourceVector{});
  root.used.assign(static_cast<size_t>(cluster.num_workers()), 0);
  root.op_count.assign(static_cast<size_t>(cluster.num_workers()) *
                           static_cast<size_t>(num_ops),
                       0);
  root.num_ops = num_ops;
  root.op_placed.assign(static_cast<size_t>(num_ops), 0);
  root.op_workers.assign(static_cast<size_t>(num_ops), {});
  for (auto& hosts : root.op_workers) {
    hosts.reserve(static_cast<size_t>(cluster.num_workers()));
  }
  root.free_slots = total_slots_;
  // One full scan seeds the violation count; Apply/UndoPlacement keep it exact after.
  root.num_violating = 0;
  for (const auto& l : root.load) {
    root.num_violating += static_cast<int>(Violates(l));
  }

  {
    Span explore("caps.search.explore");
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads);
      auto shared_root = std::make_shared<Ctx>(std::move(root));
      pool_->Submit([this, shared_root] { PlaceOp(*shared_root, 0); });
      pool_->Wait();
      pool_.reset();
    } else {
      PlaceOp(root, 0);
    }
  }

  result_.stats.nodes = nodes_.load();
  result_.stats.leaves = leaves_.load();
  result_.stats.pruned = pruned_.load();
  result_.stats.timed_out = timed_out_.load();
  result_.stats.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  span.AddAttr("nodes", result_.stats.nodes);
  span.AddAttr("leaves", result_.stats.leaves);
  span.AddAttr("pruned", result_.stats.pruned);
  span.AddAttr("found", result_.found ? "true" : "false");
  if (result_.stats.timed_out) {
    span.AddAttr("timed_out", "true");
  }
  return result_;
}

std::vector<ScoredPlan> EnumerateAllPlans(const CostModel& model) {
  SearchOptions options;
  options.alpha = ResourceVector{1.0, 1.0, 1.0};
  options.reorder = false;
  options.collect_plans = true;
  CapsSearch search(model, options);
  SearchResult result = search.Run();
  return std::move(result.collected);
}

}  // namespace capsys
