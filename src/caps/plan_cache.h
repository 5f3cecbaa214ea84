// Plan cache (paper §5.2): "Since the auto-tuning results depend only on the query graph and
// the available resources, we can pre-compute thresholds for various possible scaling
// scenarios (combinations of operator parallelism settings) offline and in parallel. The
// results can be used to select the pre-calculated thresholds when scaling is triggered at
// runtime."
//
// One cache serves that offline precomputation, the batch controller and the online
// placement service. Its key is exactly the planner's inputs, up to rate scale:
//   - JobGraphFingerprint: operators (kind, parallelism, per-record profile), edges and
//     *relative* source rates (normalized by the largest source). Task demands are linear
//     in the rates and CAPS cost vectors are invariant under uniform rate scaling, so a job
//     resubmitted at 2x the rate shares the key.
//   - ClusterSignature: per-worker slots and capacities of the cluster the plan is computed
//     on. Thresholds are load fractions of worker capacity, so a change in worker count or
//     spec gives a new key. The service plans on the residual cluster of free slots, in
//     which a dead worker and a full one both have no slots: they give the same key.
//
// An entry holds a whole plan and the thresholds it satisfied, or thresholds alone (an
// empty placement) when precomputed. Cached placements are only hints: the service
// re-validates each one against the live ClusterView at commit time, so a stale hit
// degrades to a conflict, never to a double-booked slot.
#ifndef SRC_CAPS_PLAN_CACHE_H_
#define SRC_CAPS_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/caps/auto_tuner.h"
#include "src/cluster/cluster.h"
#include "src/common/types.h"
#include "src/dataflow/logical_graph.h"
#include "src/dataflow/placement.h"

namespace capsys {

// Structural hash of the job graph + relative rates (FNV-1a over a canonical encoding).
uint64_t JobGraphFingerprint(const LogicalGraph& graph,
                             const std::map<OperatorId, double>& source_rates);

// Capacity shape of `cluster`: per-worker "slots/cpu/io/net;", each value round-trip exact.
std::string ClusterSignature(const Cluster& cluster);

struct CachedPlan {
  Placement placement;   // empty for thresholds-only entries
  ResourceVector alpha;  // auto-tuned thresholds (the plan satisfied them)
  ResourceVector cost;   // the plan's cost vector at cache time
};

// Bounded LRU, internally locked: planner threads and precompute workers share one.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 512) : capacity_(capacity) {}

  // Key of a plan for `graph` at `source_rates` computed on `cluster`.
  static std::string Key(const LogicalGraph& graph,
                         const std::map<OperatorId, double>& source_rates,
                         const Cluster& cluster);

  std::optional<CachedPlan> Lookup(const std::string& key);
  void Insert(const std::string& key, CachedPlan plan);
  bool Contains(const std::string& key) const;

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

  // Plain-text persistence of the thresholds: one line per entry, "key cpu io net".
  // Placements are not persisted; restored entries are thresholds-only.
  std::string Serialize() const;
  // Replaces the cache contents; returns false (leaving the cache empty) on parse errors.
  bool Deserialize(const std::string& text);

 private:
  struct Entry {
    CachedPlan plan;
    std::list<std::string>::iterator lru_it;
  };

  // Requires mu_ held.
  void InsertLocked(const std::string& key, CachedPlan plan);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recent
  std::unordered_map<std::string, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Auto-tunes thresholds for every scenario (a parallelism vector per operator of `graph`)
// on `cluster`, spreading scenarios across `num_threads` workers, and inserts them as
// thresholds-only entries. Scenarios already cached, or with more tasks than `cluster` has
// slots, are skipped.
void PrecomputeThresholds(PlanCache& cache, const LogicalGraph& graph,
                          const std::map<OperatorId, double>& source_rates,
                          const Cluster& cluster,
                          const std::vector<std::vector<int>>& scenarios,
                          const AutoTuneOptions& options = {}, int num_threads = 2);

}  // namespace capsys

#endif  // SRC_CAPS_PLAN_CACHE_H_
