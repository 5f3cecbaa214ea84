#include "src/caps/search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

constexpr double kEps = 1e-12;
// Relative share of the bound the lookahead cuts add as slack (see CapsSearch::limit_).
constexpr double kLookaheadSlack = 1e-9;
// A task count no worker reaches.
constexpr int kNever = std::numeric_limits<int>::max() / 2;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Cap on SearchResult::collected, which bounds a collecting search's memory.
constexpr size_t kMaxCollected = size_t{1} << 22;
// Pick keys closer than this tie (SearchOptions::incumbent).
constexpr double kPickTolerance = 1e-9;

// The tie-break of the pick order: true when a plan with max cost `max` and cost sum `sum`
// beats the one with `best_max` and `best_sum`, by more than the tolerance on one key.
bool BetterTie(double max, double sum, double best_max, double best_sum) {
  if (std::abs(max - best_max) > kPickTolerance) {
    return max < best_max;
  }
  return sum < best_sum - kPickTolerance;
}

// The band edge of the pick (SearchOptions::incumbent): a candidate whose utilization is
// above it, the lowest candidate utilization being `u_min`, cannot be picked. The tolerance
// absorbs the rounding of the incrementally kept loads.
double BandEdge(double u_min) { return u_min * (1.0 + kUtilBand) + kPickTolerance; }

// A utilization no plan of `model` goes below, given each operator's task demand and
// parallelism. Network load vanishes when tasks share a worker, so only cpu and io give a
// floor: some worker takes ceil(P / n) tasks of each operator, n being the workers with a
// slot, and the busiest worker is at least as busy as all of them together.
double UtilizationFloor(const CostModel& model, const std::vector<ResourceVector>& op_demand,
                        const std::vector<int>& op_parallelism) {
  const Cluster& cluster = model.cluster();
  int hosts = 0;
  ResourceVector task_share{kInf, kInf, kInf};  // least utilization one unit of demand adds
  ResourceVector capacity;                      // summed capacity of the hosts
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    if (cluster.worker(w).spec.slots == 0) {
      continue;
    }
    ++hosts;
    for (Resource r : {Resource::kCpu, Resource::kIo}) {
      task_share[r] = std::min(task_share[r], model.WorkerScale(w)[r] / model.Capacity(w)[r]);
      capacity[r] += model.Capacity(w)[r] / model.WorkerScale(w)[r];
    }
  }
  if (hosts == 0) {
    return 0.0;
  }
  ResourceVector demand;
  for (const auto& d : model.demands()) {
    demand += d;
  }
  double floor = 0.0;
  for (Resource r : {Resource::kCpu, Resource::kIo}) {
    floor = std::max(floor, demand[r] / capacity[r]);
    for (size_t o = 0; o < op_demand.size(); ++o) {
      int most = (op_parallelism[o] + hosts - 1) / hosts;
      floor = std::max(floor, most * op_demand[o][r] * task_share[r]);
    }
  }
  return floor;
}

}  // namespace

std::string SearchStats::ToString() const {
  return Sprintf("nodes=%llu leaves=%llu pruned=%llu elapsed=%.4fs%s%s",
                 static_cast<unsigned long long>(nodes), static_cast<unsigned long long>(leaves),
                 static_cast<unsigned long long>(pruned), elapsed_s,
                 timed_out ? " TIMED_OUT" : "", budget_hit ? " NODE_BUDGET_HIT" : "");
}

// The mutable state of the walk, changed on the way down and restored on the way back.
//
// op_placed, op_workers, free_slots and num_violating are *incremental* mirrors of
// information that older revisions recomputed by scanning all workers on every
// inner-search node; ApplyPlacement and UndoPlacement keep them exact (see DESIGN.md
// "Performance" for the invariants):
//   - op_placed[o]    == sum over workers of op_count[w][o]
//   - op_workers[o]   == the workers with op_count[w][o] > 0, in placement (stack) order
//   - free_slots      == total slot capacity minus sum of used
//   - num_violating   == number of workers whose load breaks their row of `bound`
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
  // Per-worker load bound: Eq. 10, tightened under branch and bound by the band edge of
  // the lowest candidate utilization `bound_util` and by the tie-break box for the max
  // cost `bound_tie_cost`. `limit` is what the lookahead cuts test against: the bound plus
  // a slack far above the rounding of the incrementally kept loads, so a cut never removes
  // a leaf the bound check would keep; infinite in unbounded dimensions. Written only by
  // SetBounds, so a context's rows only ever tighten.
  std::vector<ResourceVector> bound;
  std::vector<ResourceVector> limit;
  double bound_util = kInf;
  double bound_tie_cost = kInf;
  // Branch and bound: the largest load per dimension over the workers, which the subtree
  // tie cut compares with the lead. ApplyPlacement raises it for the workers it touches,
  // and the caller restores it after UndoPlacement.
  ResourceVector peak;
  // Per-layer lookahead rows, written by EnterLayer and read by every inner node of the
  // layer. One block per layer, so descending into a later layer never overwrites them
  // (layout in RowsOf()). Allocated by the first layer that sets up cuts.
  std::vector<int> layer_ints;
  std::vector<double> layer_gain;

  int* counts_of(WorkerId w) { return op_count.data() + static_cast<size_t>(w) * num_ops; }
  const int* counts_of(WorkerId w) const {
    return op_count.data() + static_cast<size_t>(w) * num_ops;
  }
  size_t num_workers() const { return load.size(); }

  // The lookahead rows of one layer:
  //   fit[w]        sum over workers v >= w of Fit(v), or of the free slots in the last
  //                 layer                                                    (workers + 1)
  //   need[w]       sum over workers v >= w of the tasks v must take so the inbound load
  //                 from the tasks placed elsewhere keeps it within the bound  (workers + 1)
  //   host_lo/hi[w] the task counts with which w can also host a task of the layer's
  //                 later sender; empty when lo > hi                           (workers)
  //   host_min[w]   min of host_lo over workers v >= w with a non-empty range (workers + 1)
  //   gain[w]       net load w gains per task of the layer's operator placed elsewhere
  struct Rows {
    int* fit;
    int* need;
    int* host_lo;
    int* host_hi;
    int* host_min;
    double* gain;
  };
  Rows RowsOf(size_t layer, size_t layers) {
    size_t w = num_workers();
    size_t stride = 5 * w + 3;
    if (layer_ints.empty()) {
      layer_ints.assign(layers * stride, 0);
      layer_gain.assign(layers * w, 0.0);
    }
    int* block = layer_ints.data() + layer * stride;
    return Rows{.fit = block,
                .need = block + w + 1,
                .host_lo = block + 2 * w + 2,
                .host_hi = block + 3 * w + 2,
                .host_min = block + 4 * w + 2,
                .gain = layer_gain.data() + layer * w};
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

  std::vector<size_t> layer_of(static_cast<size_t>(num_ops));
  for (size_t l = 0; l < order_.size(); ++l) {
    layer_of[static_cast<size_t>(order_[l])] = l;
  }
  // The heaviest edge of each layer's operator toward an operator placed later.
  auto heaviest_later = [&](size_t l, const std::vector<OpEdge>& edges) {
    OpEdge best{.peer = kInvalidId, .net_share_per_peer_task = 0.0};
    for (const auto& e : edges) {
      if (layer_of[static_cast<size_t>(e.peer)] > l &&
          e.net_share_per_peer_task > best.net_share_per_peer_task) {
        best = e;
      }
    }
    return best;
  };
  for (size_t l = 0; l < order_.size(); ++l) {
    later_sender_.push_back(heaviest_later(l, in_edges_[static_cast<size_t>(order_[l])]));
    later_receiver_.push_back(heaviest_later(l, out_edges_[static_cast<size_t>(order_[l])]));
  }

  eq10_bound_ = model.LoadBound(options_.alpha);
  branch_and_bound_ =
      options_.incumbent.has_value() && !options_.find_first && !options_.collect_plans;
  lookahead_ = branch_and_bound_ || options_.alpha.cpu < 1.0 || options_.alpha.io < 1.0 ||
               options_.alpha.net < 1.0;
  net_lookahead_ = branch_and_bound_ || options_.alpha.net < 1.0;
  if (branch_and_bound_) {
    util_floor_ = UtilizationFloor(model, op_task_demand_, op_parallelism_);
    for (Resource r : kAllResources) {
      for (WorkerId w = 0; w < model.cluster().num_workers(); ++w) {
        max_capacity_[r] = std::max(max_capacity_[r], model.Capacity(w)[r]);
      }
      double span = model.l_max()[r] - model.l_min()[r];
      cost_scale_[r] = span > kEps ? 1.0 / span : 0.0;
    }
  }

  // Group workers into spec-equivalence classes; only same-class workers are
  // interchangeable for duplicate elimination.
  const Cluster& cluster = model.cluster();
  worker_slots_.resize(static_cast<size_t>(cluster.num_workers()));
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    worker_slots_[static_cast<size_t>(w)] = cluster.worker(w).spec.slots;
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

bool CapsSearch::ShouldStop() {
  if (stop_) {
    return true;
  }
  if (nodes_ > options_.max_nodes) {
    budget_hit_ = true;
    stop_ = true;
    return true;
  }
  // Sample the clock occasionally.
  if ((++stop_checks_ & 0x3ff) == 0) {
    double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                         .count();
    if (elapsed > options_.timeout_s) {
      timed_out_ = true;
      stop_ = true;
      return true;
    }
  }
  return false;
}

bool CapsSearch::Violates(const Ctx& ctx, WorkerId w) const {
  const ResourceVector& load = ctx.load[static_cast<size_t>(w)];
  const ResourceVector& bound = ctx.bound[static_cast<size_t>(w)];
  return load.cpu > bound.cpu + kEps || load.io > bound.io + kEps ||
         load.net > bound.net + kEps;
}

void CapsSearch::SetBounds(Ctx& ctx, double u_min, double tie_cost) const {
  size_t num_workers = ctx.num_workers();
  ctx.bound.resize(num_workers);
  ctx.limit.resize(num_workers);
  ctx.bound_util = u_min;
  ctx.bound_tie_cost = tie_cost;
  ctx.num_violating = 0;
  // A plan that can still be picked keeps every worker's utilization within the band edge
  // of u_min, and once the tie-break decides, its max cost at most tie_cost plus the
  // tolerance (DESIGN.md §10, "Incumbent bound").
  bool boxed = u_min < kInf;
  double edge = BandEdge(u_min);
  ResourceVector tie_box;
  for (Resource r : kAllResources) {
    double span = model_.l_max()[r] - model_.l_min()[r];
    tie_box[r] = tie_cost < kInf && span > kEps
                     ? model_.l_min()[r] + (tie_cost + kPickTolerance) * span
                     : kInf;
  }
  for (WorkerId w = 0; w < static_cast<WorkerId>(num_workers); ++w) {
    const ResourceVector& capacity = model_.Capacity(w);
    auto& bound = ctx.bound[static_cast<size_t>(w)];
    auto& limit = ctx.limit[static_cast<size_t>(w)];
    for (Resource r : kAllResources) {
      bound[r] = boxed ? std::min({eq10_bound_[r], edge * capacity[r], tie_box[r]})
                       : eq10_bound_[r];
      bool bounded = boxed || options_.alpha[r] < 1.0;
      limit[r] = bounded ? bound[r] + kEps + kLookaheadSlack * bound[r] : kInf;
    }
    ctx.num_violating += static_cast<int>(Violates(ctx, w));
  }
}

void CapsSearch::ApplyPlacement(Ctx& ctx, size_t layer, WorkerId w, int count) {
  if (count == 0) {
    return;  // no load, slot, or count changes
  }
  OperatorId o = order_[layer];
  const ResourceVector& d = op_task_demand_[static_cast<size_t>(o)];
  const ResourceVector& scale_w = model_.WorkerScale(w);
  auto& load_w = ctx.load[static_cast<size_t>(w)];
  bool w_violated = Violates(ctx, w);
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
  if (branch_and_bound_) {
    ctx.peak.cpu = std::max(ctx.peak.cpu, load_w.cpu);
    ctx.peak.io = std::max(ctx.peak.io, load_w.io);
    ctx.peak.net = std::max(ctx.peak.net, load_w.net);
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
      bool v_violated = Violates(ctx, v);
      load_v.net += peer_tasks * e.net_share_per_peer_task * count * model_.WorkerScale(v).net;
      ctx.num_violating += static_cast<int>(Violates(ctx, v)) - static_cast<int>(v_violated);
      if (branch_and_bound_) {
        ctx.peak.net = std::max(ctx.peak.net, load_v.net);
      }
    }
  }
  ctx.num_violating += static_cast<int>(Violates(ctx, w)) - static_cast<int>(w_violated);
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
  bool w_violated = Violates(ctx, w);
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
      bool v_violated = Violates(ctx, v);
      load_v.net -= peer_tasks * e.net_share_per_peer_task * count * model_.WorkerScale(v).net;
      ctx.num_violating += static_cast<int>(Violates(ctx, v)) - static_cast<int>(v_violated);
    }
  }
  ctx.num_violating += static_cast<int>(Violates(ctx, w)) - static_cast<int>(w_violated);
}

double CapsSearch::OutboundNet(const Ctx& ctx, OperatorId o, WorkerId v) const {
  double net = 0.0;
  for (const auto& e : out_edges_[static_cast<size_t>(o)]) {
    int peer_elsewhere = ctx.op_placed[static_cast<size_t>(e.peer)] -
                         ctx.counts_of(v)[static_cast<size_t>(e.peer)];
    net += e.net_share_per_peer_task * peer_elsewhere;
  }
  return net * model_.WorkerScale(v).net;
}

int CapsSearch::Fit(const Ctx& ctx, OperatorId o, WorkerId v) const {
  int fit = worker_slots_[static_cast<size_t>(v)] - ctx.used[static_cast<size_t>(v)];
  if (!lookahead_ || fit == 0) {
    return fit;
  }
  // Caps the fit by the per-task load increment on `v`, as ApplyPlacement adds it: the
  // task's own demand plus its outbound share toward already-placed downstream peers.
  auto cap_by = [&fit](double room, double inc) {
    if (inc > 0.0 && room < fit * inc) {
      fit = static_cast<int>(std::max(0.0, room) / inc);
    }
  };
  const ResourceVector& d = op_task_demand_[static_cast<size_t>(o)];
  const ResourceVector& scale = model_.WorkerScale(v);
  const ResourceVector& load = ctx.load[static_cast<size_t>(v)];
  const ResourceVector& limit = ctx.limit[static_cast<size_t>(v)];
  cap_by(limit.cpu - load.cpu, d.cpu * scale.cpu);
  cap_by(limit.io - load.io, d.io * scale.io);
  if (net_lookahead_) {
    cap_by(limit.net - load.net, OutboundNet(ctx, o, v));
  }
  return fit;
}

std::pair<int, int> CapsSearch::HostRange(const Ctx& ctx, size_t layer, WorkerId v,
                                          int fit) const {
  OperatorId o = order_[layer];
  const OpEdge& sender = later_sender_[layer];
  int tasks = op_parallelism_[static_cast<size_t>(o)];
  const ResourceVector& d_o = op_task_demand_[static_cast<size_t>(o)];
  const ResourceVector& d_s = op_task_demand_[static_cast<size_t>(sender.peer)];
  const ResourceVector& scale = model_.WorkerScale(v);
  const ResourceVector& load = ctx.load[static_cast<size_t>(v)];
  const ResourceVector& limit = ctx.limit[static_cast<size_t>(v)];
  // The sender's task needs a slot next to the c tasks.
  int lo = 0;
  int hi = std::min(fit, worker_slots_[static_cast<size_t>(v)] -
                             ctx.used[static_cast<size_t>(v)] - 1);
  // Applies the constraint c * k <= r.
  auto constrain = [&](double k, double r) {
    if (k > 0.0 && r < hi * k) {
      hi = r < 0.0 ? -1 : static_cast<int>(r / k);
    } else if (k < 0.0 && r < 0.0) {
      double least = r / k;
      lo = least > tasks ? kNever : std::max(lo, static_cast<int>(std::ceil(least)));
    } else if (k == 0.0 && r < 0.0) {
      hi = -1;
    }
  };
  constrain(d_o.cpu * scale.cpu, limit.cpu - load.cpu - d_s.cpu * scale.cpu);
  constrain(d_o.io * scale.io, limit.io - load.io - d_s.io * scale.io);
  // The sender's task sends `share` to each of the tasks - c tasks placed elsewhere.
  double share = sender.net_share_per_peer_task * scale.net;
  constrain(OutboundNet(ctx, o, v) - share,
            limit.net - load.net - OutboundNet(ctx, sender.peer, v) - share * tasks);
  return {lo, hi};
}

CapsSearch::Cuts CapsSearch::EnterLayer(Ctx& ctx, size_t layer) {
  OperatorId o = order_[layer];
  int tasks = op_parallelism_[static_cast<size_t>(o)];
  int num_workers = static_cast<int>(ctx.num_workers());
  Ctx::Rows rows = ctx.RowsOf(layer, order_.size());
  // The last layer is entered once per plan prefix, most often of all, and a fit there only
  // saves nodes of that layer, so it keeps the free slots.
  bool last = layer + 1 == order_.size();
  bool fits_bind = false;
  int* fit = rows.fit;
  fit[num_workers] = 0;
  for (WorkerId v = num_workers - 1; v >= 0; --v) {
    int free = worker_slots_[static_cast<size_t>(v)] - ctx.used[static_cast<size_t>(v)];
    int fit_v = last ? free : Fit(ctx, o, v);
    fits_bind = fits_bind || fit_v < free;
    fit[v] = fit[v + 1] + fit_v;
  }
  if (fit[0] < tasks) {
    return Cuts::kDead;
  }
  // Later operators must fit: a fit only shrinks further down the tree.
  for (size_t later = layer + 1; later < order_.size(); ++later) {
    OperatorId p = order_[later];
    int unplaced = op_parallelism_[static_cast<size_t>(p)];
    for (WorkerId v = 0; v < num_workers && unplaced > 0; ++v) {
      unplaced -= Fit(ctx, p, v);
    }
    if (unplaced > 0) {
      return Cuts::kDead;
    }
  }
  if (!net_lookahead_) {
    return fits_bind ? Cuts::kFits : Cuts::kNone;
  }

  // Certain inbound load: every task of `o` not placed on a host of an upstream peer adds
  // the peer's channel share to that host's network load. A host must therefore take
  // enough of the tasks that the rest stay within its room.
  double* gain = rows.gain;
  std::fill(gain, gain + num_workers, 0.0);
  for (const auto& e : in_edges_[static_cast<size_t>(o)]) {
    for (WorkerId v : ctx.op_workers[static_cast<size_t>(e.peer)]) {
      gain[v] += ctx.counts_of(v)[static_cast<size_t>(e.peer)] * e.net_share_per_peer_task *
                 model_.WorkerScale(v).net;
    }
  }
  // The per-node network checks bind only where a worker's final network load can break
  // the bound: with c of the tasks it ends at load + c * (outbound + receiver traffic) +
  // (tasks - c) * gain, linear in c, so the counts 0 and fit_v bound it.
  const OpEdge& receiver = later_receiver_[layer];
  double receiver_traffic =
      receiver.peer != kInvalidId
          ? receiver.net_share_per_peer_task * op_parallelism_[static_cast<size_t>(receiver.peer)]
          : 0.0;
  bool net_binds = false;
  int* need = rows.need;
  need[num_workers] = 0;
  for (WorkerId v = num_workers - 1; v >= 0; --v) {
    int fit_v = fit[v] - fit[v + 1];
    double room = std::max(0.0, ctx.limit[static_cast<size_t>(v)].net -
                                    ctx.load[static_cast<size_t>(v)].net);
    int need_v = 0;
    if (room < tasks * gain[v]) {
      need_v = tasks - static_cast<int>(room / gain[v]);
    }
    if (need_v > fit_v) {
      return Cuts::kDead;
    }
    need[v] = need[v + 1] + need_v;
    if (!net_binds && fit_v > 0 && (gain[v] > 0.0 || receiver_traffic > 0.0)) {
      double per_task =
          OutboundNet(ctx, o, v) + receiver_traffic * model_.WorkerScale(v).net;
      net_binds = tasks * gain[v] > room || fit_v * per_task + (tasks - fit_v) * gain[v] > room;
    }
  }
  if (need[0] > tasks) {
    return Cuts::kDead;
  }
  // Later sender: a host of one of its tasks gains its share for every task of `o` placed
  // elsewhere, so some worker must take a count of `o`'s tasks that lets it host one. That
  // binds unless some worker hosts it with any count it can take.
  if (later_sender_[layer].peer != kInvalidId) {
    bool host_binds = true;
    rows.host_min[num_workers] = kNever;
    for (WorkerId v = num_workers - 1; v >= 0; --v) {
      int fit_v = fit[v] - fit[v + 1];
      auto [lo, hi] = HostRange(ctx, layer, v, fit_v);
      rows.host_lo[v] = lo;
      rows.host_hi[v] = hi;
      rows.host_min[v] = std::min(rows.host_min[v + 1], lo <= hi ? lo : kNever);
      host_binds = host_binds && !(lo == 0 && hi >= fit_v);
    }
    if (rows.host_min[0] > tasks) {
      return Cuts::kDead;
    }
    net_binds = net_binds || host_binds;
  }
  if (net_binds) {
    return Cuts::kNet;
  }
  return fits_bind ? Cuts::kFits : Cuts::kNone;
}

bool CapsSearch::AdoptBounds(Ctx& ctx) {
  if (lead_.u_min < ctx.bound_util || lead_.tie_cost < ctx.bound_tie_cost) {
    SetBounds(ctx, lead_.u_min, lead_.tie_cost);
  }
  return ctx.num_violating == 0;
}

bool CapsSearch::CannotBeatLead(const Ctx& ctx, double future_net) const {
  ResourceVector peak = ctx.peak;
  peak.net = std::max(peak.net, future_net);
  // Every plan below has at least these costs, so it cannot win the tie-break ...
  ResourceVector cost;
  for (Resource r : kAllResources) {
    cost[r] = (peak[r] - model_.l_min()[r]) * cost_scale_[r];
  }
  // A plan that ties the incumbent on every key still beats it, so only a worse sum loses.
  double max = cost.Max();
  double sum = cost.Sum();
  bool loses_sum =
      lead_.incumbent ? sum > lead_.sum + kPickTolerance : sum >= lead_.sum - kPickTolerance;
  if (max <= lead_.max + kPickTolerance && (max < lead_.max - kPickTolerance || !loses_sum)) {
    return false;
  }
  // ... and at least this utilization, so whenever it is in the band the lead candidate is
  // too, whatever lower utilization turns up later. A worker with the peak load of a
  // dimension has at most the largest capacity in it, so this is at most the bottleneck
  // utilization, and equal to it on a homogeneous cluster.
  return std::max({peak.cpu / max_capacity_.cpu, peak.io / max_capacity_.io,
                   peak.net / max_capacity_.net}) >= lead_.util;
}

void CapsSearch::PlaceOp(Ctx& ctx, size_t layer, bool backtracked) {
  if (ShouldStop()) {
    return;
  }
  if (branch_and_bound_ && !AdoptBounds(ctx)) {
    ++pruned_;
    return;
  }
  if (layer == order_.size()) {
    AtLeaf(ctx);
    return;
  }
  int tasks = op_parallelism_[static_cast<size_t>(order_[layer])];
  // The cuts are set up only off the DFS's first path, so a search that never backtracks
  // does not pay for them; each layer then runs only the checks that can bind.
  Cuts cuts = lookahead_ && backtracked ? EnterLayer(ctx, layer) : Cuts::kNone;
  switch (cuts) {
    case Cuts::kDead:
      ++pruned_;
      return;
    case Cuts::kNone:
      InnerSearch<Cuts::kNone>(ctx, layer, 0, tasks,
                               ctx.free_slots - (worker_slots_[0] - ctx.used[0]), backtracked,
                               LayerPath{});
      return;
    case Cuts::kFits:
      InnerSearch<Cuts::kFits>(ctx, layer, 0, tasks, 0, backtracked, LayerPath{});
      return;
    case Cuts::kNet:
      InnerSearch<Cuts::kNet>(ctx, layer, 0, tasks, 0, backtracked, LayerPath{});
      return;
  }
}

template <CapsSearch::Cuts kCuts>
void CapsSearch::InnerSearch(Ctx& ctx, size_t layer, WorkerId w, int remaining,
                             int later_cap, bool backtracked, LayerPath path) {
  ++nodes_;
  if (ShouldStop()) {
    return;
  }
  int num_workers = static_cast<int>(ctx.num_workers());
  if (w == num_workers) {
    if (remaining == 0) {
      PlaceOp(ctx, layer + 1, backtracked);
    }
    return;
  }

  OperatorId o = order_[layer];
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
  // The tasks not placed here must fit into later workers: their free slots, or with cuts
  // their fits.
  Ctx::Rows rows{};
  if constexpr (kCuts != Cuts::kNone) {
    rows = ctx.RowsOf(layer, order_.size());
    later_cap = rows.fit[w + 1];
  }
  int cap = worker_slots_[static_cast<size_t>(w)] - ctx.used[static_cast<size_t>(w)];
  int lo = std::max(0, remaining - later_cap);
  int hi = std::min({cap, remaining, bound});

  // Network cuts. Inbound: this worker takes its need and leaves later workers theirs; the
  // tasks not placed here each add `gain` to its network load. Sender: until some worker
  // can host a task of the later sender, this one must take a count in [host_lo, host_hi]
  // or a later worker must still be able to. Receiver: a worker taking c > 0 tasks must
  // take enough receiver tasks, since each one elsewhere adds c * per_remote to its load.
  double gain = 0.0;
  bool track_host = false;
  const OpEdge& receiver = later_receiver_[layer];
  bool track_receiver = false;
  if constexpr (kCuts == Cuts::kNet) {
    lo = std::max(lo, rows.need[w] - rows.need[w + 1]);
    hi = std::min(hi, remaining - rows.need[w + 1]);
    gain = rows.gain[w];
    track_host = !path.host_found && later_sender_[layer].peer != kInvalidId;
    track_receiver = receiver.peer != kInvalidId;
  }
  if (lo > hi) {
    return;
  }
  // True when count `c` cannot lead to a host of the later sender.
  auto loses_host = [&](int c, LayerPath& next) {
    if (!track_host) {
      return false;
    }
    next.host_found = c >= rows.host_lo[w] && c <= rows.host_hi[w];
    return !next.host_found && rows.host_min[w + 1] > remaining - c;
  };
  // True when the applied count `c` breaks the bound once the layer and its later receiver
  // are placed.
  auto breaks_later = [&](int c, LayerPath& next) {
    const ResourceVector& load = ctx.load[static_cast<size_t>(w)];
    double limit = ctx.limit[static_cast<size_t>(w)].net;
    if (gain > 0.0 && load.net + (remaining - c) * gain > limit) {
      return true;
    }
    if (!track_receiver || c == 0) {
      return false;
    }
    int receiver_tasks = op_parallelism_[static_cast<size_t>(receiver.peer)];
    double room = std::max(0.0, limit - load.net);
    double per_remote = c * receiver.net_share_per_peer_task * model_.WorkerScale(w).net;
    if (room >= receiver_tasks * per_remote) {
      return false;
    }
    int need = receiver_tasks - static_cast<int>(room / per_remote);
    next.receiver_need += need;
    return next.receiver_need > receiver_tasks || need > Fit(ctx, receiver.peer, w);
  };

  // Tries one task count for this worker; returns false once the search should stop.
  // Worker loads grow monotonically in c, so once a count violates the bounds every larger
  // count does too (dead_above).
  int dead_above = hi + 1;
  bool first = true;
  auto try_count = [&](int c) {
    LayerPath next = path;
    if (kCuts == Cuts::kNet && branch_and_bound_) {
      // The remaining - c tasks go to later workers, each adding `gain` to this one.
      next.future_net = std::max(next.future_net, ctx.load[static_cast<size_t>(w)].net +
                                                      (remaining - c) * gain);
    }
    if (kCuts == Cuts::kNet && loses_host(c, next)) {
      ++pruned_;
    } else if (c < dead_above) {
      ResourceVector peak = ctx.peak;
      ApplyPlacement(ctx, layer, w, c);
      if (ctx.num_violating > 0) {
        ++pruned_;
        dead_above = c;
      } else if (kCuts == Cuts::kNet && breaks_later(c, next)) {
        ++pruned_;
      } else if (branch_and_bound_ && CannotBeatLead(ctx, next.future_net)) {
        // Not a dead_above: a larger count raises the loads but lowers future_net.
        ++pruned_;
      } else {
        // Without cuts: free capacity of workers beyond w+1 is untouched by placements at w.
        int next_later = kCuts == Cuts::kNone && w + 1 < num_workers
                             ? later_cap - (worker_slots_[static_cast<size_t>(w) + 1] -
                                            ctx.used[static_cast<size_t>(w) + 1])
                             : 0;
        InnerSearch<kCuts>(ctx, layer, w + 1, remaining - c, next_later, backtracked || !first,
                           next);
      }
      UndoPlacement(ctx, layer, w, c);
      ctx.peak = peak;
    }
    first = false;
    return !stop_;
  };

  // Value ordering: try counts closest to the proportional (balanced) share first, so the
  // first complete plan the DFS reaches is already near-balanced. This makes find-first
  // searches and time-budgeted searches anytime-good without changing the explored set.
  // The candidate sequence is generated in place — no per-node ordering buffer. Narrowing
  // [lo, hi] only drops counts without a satisfying leaf and keeps the order of the rest.
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

template <typename Build>
void CapsSearch::AddCandidate(double util, const ResourceVector& cost, bool incumbent,
                              Build build) {
  double max = cost.Max();
  double sum = cost.Sum();
  lead_.u_min = std::min(lead_.u_min, util);
  // Every plan's utilization is at least the floor, so a candidate within the band of the
  // floor stays in the band: the pick wins or ties its tie-break, and so has a max cost at
  // most this one's plus the tolerance.
  if (util <= util_floor_ * (1.0 + kUtilBand)) {
    lead_.tie_cost = std::min(lead_.tie_cost, max);
  }
  // True when front candidate `c` comes before the new one in the tie-break: it wins it,
  // or ties it as a leaf, since leaves come in DFS order and the incumbent, which is always
  // the first candidate, last.
  auto comes_first = [&](const Candidate& c) {
    double c_max = c.plan.cost.Max();
    double c_sum = c.plan.cost.Sum();
    return c.incumbent ? BetterTie(c_max, c_sum, max, sum) : !BetterTie(max, sum, c_max, c_sum);
  };
  // A candidate that another one beats on both utilization and the tie-break is never
  // picked: whenever it is in the band, so is the other one.
  double edge = BandEdge(lead_.u_min);
  bool beaten = util > edge || std::any_of(front_.begin(), front_.end(), [&](const Candidate& c) {
                  return c.util <= util && comes_first(c);
                });
  if (!beaten) {
    std::erase_if(front_, [&](const Candidate& c) {
      return c.util > edge || (c.util >= util && !comes_first(c));
    });
    front_.push_back(Candidate{.plan = ScoredPlan{build(), cost}, .util = util,
                               .incumbent = incumbent});
    const Candidate& pick = front_[BandPick()];
    lead_.util = pick.util;
    lead_.max = pick.plan.cost.Max();
    lead_.sum = pick.plan.cost.Sum();
    lead_.incumbent = pick.incumbent;
  }
}

size_t CapsSearch::BandPick() const {
  // front_ holds only candidates within the band. The leaves are ranked in the order they
  // turned up and the incumbent last, and a later one takes the pick only by winning the
  // tie-break.
  size_t best = front_.size();
  for (bool incumbent : {false, true}) {
    for (size_t i = 0; i < front_.size(); ++i) {
      const ResourceVector& c = front_[i].plan.cost;
      if (front_[i].incumbent == incumbent &&
          (best == front_.size() ||
           BetterTie(c.Max(), c.Sum(), front_[best].plan.cost.Max(),
                     front_[best].plan.cost.Sum()))) {
        best = i;
      }
    }
  }
  return best;
}

void CapsSearch::AtLeaf(Ctx& ctx) {
  ++leaves_;
  // Cost and utilization from the incrementally tracked loads.
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
  double util = 0.0;
  if (options_.incumbent.has_value()) {
    for (WorkerId w = 0; w < static_cast<WorkerId>(ctx.num_workers()); ++w) {
      util = std::max(util, model_.Utilization(w, ctx.load[static_cast<size_t>(w)]));
    }
  }

  // The task assignment is only materialized for plans the result actually retains (a new
  // best, or collected); most leaves need no Placement allocation. Tasks of each operator
  // go to workers in worker-index order.
  auto build_plan = [&] {
    const PhysicalGraph& graph = model_.graph();
    Placement plan(graph.num_tasks());
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
    return plan;
  };

  if (options_.incumbent.has_value()) {
    AddCandidate(util, cost, /*incumbent=*/false, build_plan);
  } else if (!result_.found || BetterCost(cost, result_.best.cost)) {
    result_.best = ScoredPlan{build_plan(), cost};
  }
  result_.found = true;
  if (options_.collect_plans && result_.collected.size() < kMaxCollected) {
    result_.collected.push_back(ScoredPlan{build_plan(), cost});
  }
  if (options_.find_first) {
    stop_ = true;
  }
}

SearchResult CapsSearch::Run() {
  Span span("caps.search.run");
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
  root.free_slots = cluster.total_slots();
  // The incumbent is the first candidate and gives the first boxes.
  if (options_.incumbent.has_value()) {
    const Placement& incumbent = *options_.incumbent;
    AddCandidate(MaxUtilization(model_, incumbent), model_.Cost(incumbent),
                 /*incumbent=*/true, [&] { return incumbent; });
  }
  // One full scan seeds the violation count; Apply/UndoPlacement keep it exact after.
  // A search that is no branch and bound takes the incumbent only into the final pick.
  if (branch_and_bound_) {
    SetBounds(root, lead_.u_min, lead_.tie_cost);
  } else {
    SetBounds(root, kInf, kInf);
  }

  {
    Span explore("caps.search.explore");
    PlaceOp(root, 0, false);
  }

  if (options_.incumbent.has_value()) {
    result_.best = std::move(front_[BandPick()].plan);
  }
  result_.stats.nodes = nodes_;
  result_.stats.leaves = leaves_;
  result_.stats.pruned = pruned_;
  result_.stats.timed_out = timed_out_;
  result_.stats.budget_hit = budget_hit_;
  result_.stats.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  span.AddAttr("nodes", result_.stats.nodes);
  span.AddAttr("leaves", result_.stats.leaves);
  span.AddAttr("pruned", result_.stats.pruned);
  span.AddAttr("found", result_.found ? "true" : "false");
  if (result_.stats.timed_out) {
    span.AddAttr("timed_out", "true");
  }
  if (result_.stats.budget_hit) {
    span.AddAttr("budget_hit", "true");
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
