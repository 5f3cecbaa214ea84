// Versioned cluster view shared by the online placement service (scheduler subsystem).
//
// The view owns the authoritative slot accounting of one shared cluster while several
// planner threads compute placements concurrently. The service's dispatcher thread is its
// only writer: it takes an immutable Snapshot (epoch + per-worker free slots + usable
// mask) for each planning session, hands it to a planner, and commits the plan the
// planner posts back:
//
//   - kCommitted        epoch unchanged since the snapshot — the plan's assumptions hold
//                       verbatim and the reservation is applied; the epoch is bumped.
//   - kCommittedStale   the epoch moved, but re-validation under the lock shows the
//                       reservation still fits the current free slots of usable workers
//                       (another job's commit did not intersect ours). Applied; epoch
//                       bumped.
//   - kConflict         the reservation no longer fits — the session is replanned on a
//                       fresh snapshot (see PlacementService).
//
// The view locks internally because other threads read it (PlacementService::view()).
//
// Every mutation (commit, release, worker death/restore, spec change) bumps the epoch, so
// an epoch value uniquely identifies one slot-accounting state. Two snapshots with equal
// residual clusters are interchangeable for planning purposes — the plan cache keys on the
// residual cluster's signature for exactly that reason.
#ifndef SRC_SCHEDULER_CLUSTER_VIEW_H_
#define SRC_SCHEDULER_CLUSTER_VIEW_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/types.h"

namespace capsys {

using JobId = int64_t;
inline constexpr JobId kInvalidJobId = -1;

// Slots reserved on each worker by one job: reservation[w] = tasks of the job on worker w.
using SlotReservation = std::vector<int>;

// Immutable view of the slot accounting at one epoch.
struct ClusterSnapshot {
  uint64_t epoch = 0;
  std::vector<int> free_slots;   // per worker; 0 for unusable workers
  std::vector<bool> usable;      // worker up and not excluded
  int total_free = 0;

  // Residual cluster for planning: same workers (same global WorkerIds and capacities),
  // slots clamped to the free count. Unusable workers keep 0 slots.
  Cluster ResidualCluster(const Cluster& full) const;
};

enum class CommitResult : int {
  kCommitted = 0,     // epoch matched; reservation applied
  kCommittedStale,    // epoch moved but the reservation re-validated; applied
  kConflict,          // reservation no longer fits; re-plan required
};

const char* CommitResultName(CommitResult result);

class ClusterView {
 public:
  explicit ClusterView(Cluster cluster);

  const Cluster& cluster() const { return cluster_; }
  int num_workers() const { return cluster_.num_workers(); }

  uint64_t epoch() const;
  ClusterSnapshot Snapshot() const;
  // Snapshot as seen by `job`'s planner: the job's own held slots count as free (the
  // commit is a make-before-break swap, so a rescale/recovery replan may reuse them).
  ClusterSnapshot SnapshotFor(JobId job) const;

  // Commits `reservation` for `job`, releasing whatever the job had reserved before
  // (make-before-break swap, so rescales and recovery replans are atomic). An epoch advance
  // since `snapshot_epoch` commits as kCommittedStale when the reservation still fits.
  CommitResult TryCommit(JobId job, uint64_t snapshot_epoch,
                         const SlotReservation& reservation);

  // Releases everything `job` has reserved. No-op (returns false) when nothing is held.
  bool Release(JobId job);

  // Marks a worker unusable. The per-job slots reserved on that worker are dropped from the
  // accounting (the tasks are gone with the worker); returns job -> slots lost on `w` for
  // the jobs that were touching it, so the caller can drive their recovery.
  std::map<JobId, int> MarkWorkerDown(WorkerId w);
  // Marks a worker usable again, making its slots available to planners.
  void MarkWorkerUp(WorkerId w);
  bool IsWorkerUsable(WorkerId w) const;

  // Aggregate capacity of usable workers minus nothing (specs are static): the admission
  // ceiling. free variant subtracts committed reservations' slot counts only; resource
  // demand accounting lives in the PlacementService (it knows per-job demand vectors).
  int TotalSlots() const;        // usable workers only
  int TotalFreeSlots() const;
  ResourceVector TotalCapacity() const;  // cpu cores / io bps / net bps of usable workers

  // Reservation currently held by `job` (empty vector if none).
  SlotReservation ReservationOf(JobId job) const;

  // Checks the internal invariants: per-worker reserved slots equal the sum of job
  // reservations, no worker over its slot count, no reservation on an unusable worker.
  // Returns an error description or "" when consistent.
  std::string CheckInvariants() const;

 private:
  // Requires mu_ held.
  bool FitsLocked(const SlotReservation& reservation, JobId ignore_job) const;

  Cluster cluster_;
  mutable std::mutex mu_;
  uint64_t epoch_ = 1;
  std::vector<int> reserved_;  // per worker, summed over jobs
  std::vector<bool> usable_;
  std::map<JobId, SlotReservation> by_job_;
};

}  // namespace capsys

#endif  // SRC_SCHEDULER_CLUSTER_VIEW_H_
