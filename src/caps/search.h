// Contention-Aware Placement Search (paper §4.3-§4.4).
//
// The search space of feasible plans is explored as a tree in DFS order:
//   - the *outer search* places one operator per layer (in resource-ranked order when
//     reordering is enabled, §4.4.2);
//   - the *inner search* expands a layer worker by worker, deciding how many of the
//     operator's (identical) tasks each worker receives.
//
// Duplicate elimination (§4.3): workers are homogeneous, so a worker whose already-assigned
// task multiset equals that of a previous worker may receive at most as many tasks of the
// current operator as that previous worker. This rule makes the enumeration an *exact* orbit
// enumerator: every distinct plan (up to worker permutation) is produced exactly once —
// validated against brute force in tests, and reproducing the paper's plan counts (80 for
// Q1-sliding, 665 for Q2-join, 950 for Q3-inf on the 4x4 cluster).
//
// Threshold pruning (§4.4.1): per-worker loads grow monotonically down the tree, so a branch
// dies as soon as any worker load exceeds L_i_min + alpha_i (L_i_max - L_i_min) (Eq. 10).
//
// Lookahead (when some load bound is finite): the same monotonicity bounds what a subtree
// can still hold, so admissible cuts remove subtrees without a satisfying leaf before they
// are walked: per-worker task fits of the layer's operator, the inbound load a worker is
// certain to gain from tasks placed after it, a fit check of every later operator, and the
// traffic to and from operators of later layers. Surviving leaves are visited in the same
// order, so the find-first plan and the collected plans do not change; only the node and
// pruned counts do (DESIGN.md §10).
//
// Incumbent bound: given an incumbent plan, the search returns the band pick among the
// incumbent and the satisfying leaves. With u* the lowest MaxUtilization of any of them, it
// takes, among those within u* x (1 + kUtilBand), the lowest max cost and then the lowest
// cost sum, where a plan wins a key only by more than 1e-9 and full ties go to the first
// leaf in DFS order, the incumbent last. A lower utilization found later can push the
// current pick out of the band, so the search keeps the candidates that no other beats on
// both utilization and the tie-break. An exploring search is a branch and bound on the
// pick, in one walk, with cuts that hold whatever lower utilization turns up later:
//   - every worker stays within the band edge of the lowest utilization so far, which
//     tightens the Eq. 10 bound as better plans turn up;
//   - once a candidate is within the band of a floor no plan's utilization goes below, it
//     stays in the band, and its max cost bounds every load as a threshold would;
//   - a subtree whose bottleneck utilization already reaches the lead candidate's own is
//     cut once its partial costs lose the tie-break to that candidate.
// DESIGN.md §10, "Incumbent bound", has the argument.
#ifndef SRC_CAPS_SEARCH_H_
#define SRC_CAPS_SEARCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/caps/cost_model.h"
#include "src/common/thread_pool.h"

namespace capsys {

// Relative MaxUtilization band of the incumbent pick (SearchOptions::incumbent): the plans
// within this share above the lowest utilization are ranked by their costs. A utilization
// lead of ~1e-4 does not predict simulated throughput, while the max cost does.
inline constexpr double kUtilBand = 1e-3;

struct SearchOptions {
  // Pruning thresholds per dimension; values >= 1 disable pruning in that dimension
  // (cost values never exceed 1 by construction).
  ResourceVector alpha{1.0, 1.0, 1.0};
  // Explore resource-heavy operators first (§4.4.2).
  bool reorder = true;
  // Worker-symmetry duplicate elimination (§4.3). Disabling it enumerates every symmetric
  // copy of each plan — only useful for ablation studies.
  bool eliminate_duplicates = true;
  // Try near-balanced task counts first inside the inner search so the first complete plan
  // is already good (anytime behaviour). Disabling falls back to ascending count order.
  bool value_ordering = true;
  // Stop at the first plan satisfying the thresholds (used by the Fig. 10a measurements
  // and by threshold auto-tuning feasibility probes).
  bool find_first = false;
  // Retain every satisfying plan, up to 2^22 of them (exhaustive studies, Fig. 2 / Fig. 5).
  bool collect_plans = false;
  // Worker threads for parallel subtree exploration; 1 = fully deterministic.
  int num_threads = 1;
  double timeout_s = 1e18;
  // Inner-search nodes the walk may expand; the search stops once it has expanded more.
  // Unlike timeout_s this budget does not depend on the machine: a single-threaded search
  // stops one node past it on every run (n threads: up to n nodes past it).
  uint64_t max_nodes = std::numeric_limits<uint64_t>::max();
  // A plan to beat, not a tuning knob. When set, SearchResult::best is the band pick among
  // it and the satisfying leaves: the lowest max cost, then the lowest cost sum, among the
  // candidates whose MaxUtilization is within kUtilBand of the lowest, each key tied within
  // 1e-9, with full ties going to the first leaf and the incumbent last; and a search that
  // neither stops at the first plan nor collects plans cuts every subtree whose plans
  // cannot become that pick.
  std::optional<Placement> incumbent;
};

struct ScoredPlan {
  Placement placement;
  ResourceVector cost;
};

struct SearchStats {
  uint64_t nodes = 0;    // inner-search tree nodes expanded
  uint64_t leaves = 0;   // complete plans satisfying the thresholds
  uint64_t pruned = 0;   // branches cut by threshold pruning and the lookahead cuts
  double elapsed_s = 0.0;
  bool timed_out = false;   // stopped by SearchOptions::timeout_s
  bool budget_hit = false;  // stopped by SearchOptions::max_nodes

  std::string ToString() const;
};

struct SearchResult {
  bool found = false;  // some plan satisfies the thresholds
  // The BetterCost-minimal satisfying plan; with an incumbent, the band pick among it and
  // the satisfying plans (SearchOptions::incumbent), so it is set even when nothing is found.
  ScoredPlan best;
  std::vector<ScoredPlan> collected;  // all satisfying plans when collect_plans is set
  SearchStats stats;
};

// True when no forward edge of `graph` leaves an operator with parallelism > 1. CAPS treats
// the tasks of an operator as interchangeable, which subtask-paired forward channels would
// break, so this is the precondition of CapsSearch.
bool CapsSearchable(const LogicalGraph& graph);

class CapsSearch {
 public:
  // `model` must outlive the search. Its graph must be CapsSearchable; this is CHECKed.
  CapsSearch(const CostModel& model, SearchOptions options);
  ~CapsSearch();

  SearchResult Run();

  // The operator exploration order the search used (after reordering).
  const std::vector<OperatorId>& operator_order() const { return order_; }

 private:
  struct Ctx;
  // Branch and bound: what a plan must beat to be picked. `u_min` is the lowest utilization
  // of a candidate, whose band edge boxes every load. `util`, `max` and `sum` are the
  // utilization and cost of the lead candidate, the band pick among the candidates so far;
  // `incumbent` is set while that candidate is the incumbent, which comes last in the pick
  // order, so a plan that ties it still beats it. `tie_cost` is the lowest max cost of a
  // candidate within the band of util_floor_ (the tie-break box).
  struct Lead {
    double u_min = std::numeric_limits<double>::infinity();
    double util = std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    double sum = std::numeric_limits<double>::infinity();
    double tie_cost = std::numeric_limits<double>::infinity();
    bool incumbent = false;
  };
  // A candidate of the band pick that no other candidate beats on both utilization and
  // the tie-break (front_).
  struct Candidate {
    ScoredPlan plan;
    double util = 0.0;
    bool incumbent = false;
  };

  // `backtracked` is false only on the DFS's first path, where every choice so far was the
  // first count tried. Layers entered on that path set up no lookahead cuts, so searches
  // that never backtrack do not pay for them. It is a function of the path, not of the
  // visit history, so offloaded subtrees make the same cuts as the sequential walk.
  void PlaceOp(Ctx& ctx, size_t layer, bool backtracked);
  // Lookahead state of the current path through one layer's inner search.
  struct LayerPath {
    // A worker before `w` took a count of the layer's tasks that lets it host a task of the
    // layer's later sender (see later_sender_).
    bool host_found = false;
    // Tasks of the layer's later receiver that the workers before `w` must take so their
    // traffic toward its other tasks stays within the bound (see later_receiver_).
    int receiver_need = 0;
    // The network load some worker before `w` reaches once the layer's tasks it did not
    // take are placed: its load plus their inbound gain (read by the subtree tie cut).
    double future_net = 0.0;
  };
  // The lookahead a layer entry sets up: the layer is cut (kDead), or its inner nodes run
  // without cuts (kNone: plain free-slot capacities), with the fit suffix (kFits), or with
  // the fit suffix and the network checks (kNet). A layer runs only the checks that can
  // bind, so nodes of loosely bounded layers pay for none.
  enum class Cuts { kDead, kNone, kFits, kNet };
  // In the kNone variant `later_cap`, the summed free slot capacity of workers > w, is
  // threaded through the recursion so no node rescans the suffix of the worker array; the
  // other variants read the layer's fit suffix instead.
  template <Cuts kCuts>
  void InnerSearch(Ctx& ctx, size_t layer, WorkerId w, int remaining, int later_cap,
                   bool backtracked, LayerPath path);
  // Fills the layer's lookahead rows (Ctx::Rows) from the state at layer entry and returns
  // which of them can bind; kDead when a cut shows that the layer's operator or a later
  // operator cannot be placed.
  Cuts EnterLayer(Ctx& ctx, size_t layer);
  // Tasks of operator `o` worker `v` can still take: its free slots, and with lookahead
  // also the largest count whose load increment keeps `v` within the bound. An upper bound
  // on what `v` can take anywhere below the current node, because loads only grow.
  int Fit(const Ctx& ctx, OperatorId o, WorkerId v) const;
  // Network load one task of `o` adds to `v` toward already-placed downstream peer tasks
  // that are not on `v`.
  double OutboundNet(const Ctx& ctx, OperatorId o, WorkerId v) const;
  // The task counts of the layer's operator with which `v` can also host a task of the
  // layer's later sender within the bound, given that `v` takes at most `fit` of them; an
  // empty range (first > second) when none can.
  std::pair<int, int> HostRange(const Ctx& ctx, size_t layer, WorkerId v, int fit) const;
  void AtLeaf(Ctx& ctx);
  // Band pick: enters a candidate with utilization `util` and cost `cost`, the incumbent or
  // a leaf, into front_ unless a candidate there beats it on both utilization and the
  // tie-break, building its plan with `build` only then, and updates lead_. Called under
  // result_mu_ or before the search starts.
  template <typename Build>
  void AddCandidate(double util, const ResourceVector& cost, bool incumbent, Build build);
  // The index in front_ of the band pick among its candidates.
  size_t BandPick() const;
  bool ShouldStop();
  // Sets the context's per-worker bound and limit rows for the lowest candidate
  // utilization `u_min` (its band edge boxes the loads) and the tie-break bound `tie_cost`
  // (infinite: Eq. 10 alone) and recounts its violating workers.
  void SetBounds(Ctx& ctx, double u_min, double tie_cost) const;
  // Branch and bound, at layer entry: adopts the lead and the boxes of better candidates
  // found since the context last looked, by this thread or another. False when a worker
  // already breaks them or the subtree tie cut applies, which kills the subtree since loads
  // only grow. Kept out of PlaceOp's body, which stays small enough for the compiler to
  // keep the recursion fast.
  bool AdoptBounds(Ctx& ctx);
  // Subtree tie cut: true when no plan below the context's state can become the pick. Its
  // bottleneck utilization already reaches the lead candidate's own, so that candidate is
  // in the band whenever a plan below is, and its costs already lose the tie-break to it
  // (DESIGN.md §10, "Incumbent bound"). `future_net` is a network load some worker reaches
  // in every plan below.
  bool CannotBeatLead(const Ctx& ctx, double future_net) const;
  // Applies / reverts the load deltas of placing `count` tasks of the layer's operator on
  // worker `w`, including resolved cross-worker network contributions. Maintains the
  // incremental search state (per-operator placed totals, per-operator host lists, and the
  // bound-violation count) so feasibility checks touch only the mutated workers.
  void ApplyPlacement(Ctx& ctx, size_t layer, WorkerId w, int count);
  void UndoPlacement(Ctx& ctx, size_t layer, WorkerId w, int count);
  // True when worker `w`'s load exceeds its bound row in any dimension.
  bool Violates(const Ctx& ctx, WorkerId w) const;

  const CostModel& model_;
  SearchOptions options_;
  std::vector<OperatorId> order_;  // outer layers
  ResourceVector eq10_bound_;      // Eq. 10 load bound
  // Branch and bound on the pick objective: an incumbent in a search that neither stops at
  // the first plan nor collects plans.
  bool branch_and_bound_ = false;
  // Lookahead cuts run when some load bound is finite; with every dimension unbounded
  // nothing can be cut. `net_lookahead_` additionally needs a bounded network dimension.
  bool lookahead_ = false;
  bool net_lookahead_ = false;
  // Slot capacity per worker, captured once at construction. The search assumes specs do
  // not change while it runs; snapshotting makes that explicit instead of re-reading the
  // cluster's Worker records on every inner-search node.
  std::vector<int> worker_slots_;
  // Per-operator task demand (tasks of one operator are identical).
  std::vector<ResourceVector> op_task_demand_;   // indexed by OperatorId
  std::vector<double> op_downstream_channels_;   // |D(t)| per task of op
  std::vector<int> op_parallelism_;
  // Adjacency between operators with channel multiplicities (all-to-all edges).
  struct OpEdge {
    OperatorId peer;
    // Edges where this op is upstream: per-task share of U_net per peer task.
    double net_share_per_peer_task;
  };
  std::vector<std::vector<OpEdge>> out_edges_;  // o -> downstream peers
  std::vector<std::vector<OpEdge>> in_edges_;   // o -> upstream peers (share = peer's)
  // Per layer: the upstream operator placed in a later layer that sends the layer's
  // operator the largest per-channel share (peer == kInvalidId when there is none). A host
  // of one of its tasks gains that share for every task of the layer's operator not on it,
  // so with a bounded network some worker must take enough of them.
  std::vector<OpEdge> later_sender_;
  // Per layer: the downstream operator placed in a later layer that the layer's operator
  // sends the largest per-channel share. A worker taking c of the layer's tasks gains
  // c times that share for every receiver task not on it, so it must take enough of them.
  std::vector<OpEdge> later_receiver_;

  // Spec-equivalence class per worker: the duplicate rule only compares workers of the
  // same class (all zero for homogeneous clusters).
  std::vector<int> worker_class_;

  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> nodes_{0};
  std::atomic<uint64_t> leaves_{0};
  std::atomic<uint64_t> pruned_{0};
  std::atomic<bool> timed_out_{false};
  std::atomic<bool> budget_hit_{false};
  // Branch and bound: what a plan must beat, from the candidates so far (the incumbent,
  // then the leaves). Written under result_mu_, and every change bumps lead_version_;
  // contexts, offloaded subtrees included, copy it at layer entry when the version moved.
  Lead lead_;
  std::atomic<uint64_t> lead_version_{0};
  // A utilization no plan goes below (branch and bound only): a candidate within the band
  // of it stays in the band whatever lower utilization turns up later.
  double util_floor_ = 0.0;
  // The largest capacity of a worker per dimension, and the factor CostOfLoad scales a
  // load above l_min by (branch and bound only).
  ResourceVector max_capacity_;
  ResourceVector cost_scale_;
  std::chrono::steady_clock::time_point start_;

  std::mutex result_mu_;
  SearchResult result_;
  // With an incumbent: the candidates within the band that no other candidate beats on
  // both utilization and the tie-break, in the order they turned up. Small, since within
  // the band a higher utilization must buy a better tie-break.
  std::vector<Candidate> front_;
};

// Convenience: enumerate every distinct placement plan (no thresholds), returning plans
// with their cost vectors. Used by the exhaustive study (Fig. 2 / Fig. 5) and by tests.
std::vector<ScoredPlan> EnumerateAllPlans(const CostModel& model);

}  // namespace capsys

#endif  // SRC_CAPS_SEARCH_H_
