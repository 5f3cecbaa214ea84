// Online multi-job placement service (scheduler subsystem; see DESIGN.md §9).
//
// An always-on, multi-threaded front-end to the CAPS placement machinery that owns one
// shared cluster and serves concurrent job submissions, cancels, rescales, and
// failure-triggered replans:
//
//   - One *dispatcher* thread drains a single serialized event queue (client requests,
//     FailureDetector verdicts, DS2 scale decisions, and planner completions all flow
//     through the same queue) and drives the per-job state machines in job.h. All job
//     bookkeeping happens on this thread, so the lifecycle logic needs no per-job locks.
//     It is also the only writer of the ClusterView (see cluster_view.h).
//   - A planner ThreadPool runs CAPS searches concurrently. The dispatcher hands each
//     planning session to an idle planner together with a ClusterView snapshot; sessions
//     beyond the pool size wait in a FIFO. A planner only plans: it posts the plan back,
//     and the dispatcher commits it. A commit that conflicts sends the session back to
//     the front of the FIFO, to replan with the same graph and tuned thresholds.
//   - Admission control estimates a job's aggregate CPU/IO/net demand from the cost model
//     and either admits, queues (fits the cluster but not the current free capacity), or
//     rejects it with a structured kRejectedCapacity — never a CHECK abort. Queued jobs
//     are re-examined whenever capacity frees (cancel, restore, down-scale).
//   - A PlanCache keyed by (job fingerprint, residual-cluster signature) lets repeated
//     submissions and failure-replans of an unchanged job skip the search.
//
// The service is additive: the single-job batch drivers (fig benches, chaos/scaling
// drivers) do not go through it and are byte-identical to their pre-service behaviour.
#ifndef SRC_SCHEDULER_PLACEMENT_SERVICE_H_
#define SRC_SCHEDULER_PLACEMENT_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/caps/auto_tuner.h"
#include "src/caps/plan_cache.h"
#include "src/common/thread_pool.h"
#include "src/scheduler/cluster_view.h"
#include "src/scheduler/job.h"

namespace capsys {

struct SchedulerOptions {
  // Concurrent planner threads, each running one single-threaded plan at a time.
  int planner_threads = 2;
  // Jobs with more tasks take the first plan within auto-tuned thresholds; smaller ones are
  // searched by branch and bound, which is not tuned (PlanPlacement).
  int find_first_above_tasks = 32;
  // Wall-clock safety stops of auto-tuning; its node-budgeted probes end well before them.
  AutoTuneOptions autotune;

  // Admission control.
  int max_queued_jobs = 64;
  // Fraction of aggregate usable capacity admissible per dimension (1.0 = up to nominal).
  double admission_headroom = 1.0;

  // Plan cache.
  bool enable_plan_cache = true;
};

struct SchedulerStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t queued = 0;          // admission deferrals (incl. recovery requeues)
  uint64_t rejected = 0;
  uint64_t cancelled = 0;
  uint64_t plans_committed = 0;
  uint64_t plans_from_cache = 0;
  uint64_t commit_conflicts = 0;
  uint64_t stale_commits = 0;
  uint64_t recoveries = 0;      // worker-death replans dispatched
  uint64_t downscales = 0;      // degraded-recovery parallelism reductions
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t epoch = 0;           // current cluster-view epoch

  std::string ToString() const;
};

class PlacementService {
 public:
  PlacementService(Cluster cluster, SchedulerOptions options = {});
  ~PlacementService();  // drains in-flight planners, stops the dispatcher

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  // --- Client API (thread-safe; all asynchronous, serialized through the event queue) ---

  // Submits a job; returns its id immediately. Admission/planning proceed asynchronously.
  JobId Submit(JobSpec spec);
  // Cancels a job in any non-terminal state, releasing its reservation.
  void Cancel(JobId job);
  // Requests a re-plan at a new per-operator parallelism, e.g. a DS2 decision (only
  // honoured while Running).
  void Rescale(JobId job, std::vector<int> parallelism);

  // --- Cluster events (FailureDetector verdicts, chaos faults, capacity changes) -------

  void OnWorkerDead(WorkerId w);
  void OnWorkerRestored(WorkerId w);

  // --- Introspection --------------------------------------------------------------------

  JobStatus Status(JobId job) const;
  std::vector<JobStatus> AllStatuses() const;
  SchedulerStats stats() const;
  const ClusterView& view() const { return view_; }

  // Blocks until the service is quiescent: event queue empty, no planner in flight, and
  // every job in Queued / Running / Terminated / Rejected. Returns false on timeout.
  bool WaitIdle(double timeout_s);

 private:
  struct EventItem;
  struct JobRecord;
  struct PlanOutcome;
  struct PlanRequest;

  void DispatcherLoop();
  void Enqueue(EventItem item);
  // Dispatcher-thread handlers.
  void HandleSubmit(JobId job);
  void HandleCancel(JobId job);
  void HandleRescale(JobId job, std::vector<int> parallelism);
  void HandleWorkerDead(WorkerId w);
  void HandleWorkerRestored(WorkerId w);
  // Commits a planner's outcome, replans it on a conflict, or queues the job when it did
  // not fit.
  void HandlePlanned(JobId job, PlanOutcome outcome);
  // Whether a job of `tasks` tasks and `demand` cannot fit the usable cluster even when it
  // is empty: the admission ceiling (dispatcher thread, mu_ held).
  bool ExceedsClusterLocked(int tasks, const ResourceVector& demand) const;
  // Admission decision for a submitted/queued job (dispatcher thread, mu_ held).
  AdmissionOutcome AdmitLocked(const JobRecord& rec);
  // Re-examines queued jobs after capacity freed (dispatcher thread, mu_ held).
  void ReleaseQueuedLocked();
  // Appends a planning session for `rec` to the plan FIFO (dispatcher thread, mu_ held).
  void RequestPlanLocked(const JobRecord& rec, bool recovering);
  // Hands queued sessions, each with a fresh snapshot, to idle planners (dispatcher
  // thread, mu_ held).
  void DispatchPlansLocked();
  // Moves `rec` to Recovering after it lost slots on a dead worker and requests a recovery
  // plan (dispatcher thread, mu_ held).
  void BeginRecoveryLocked(JobRecord& rec, const std::string& cause);
  // Runs in a planner thread; plans against the session's snapshot, then posts kPlanned.
  void RunPlanner(PlanRequest req);
  void Transition(JobRecord& rec, JobState to, const std::string& detail);
  double NowS() const;

  Cluster cluster_;
  SchedulerOptions options_;
  ClusterView view_;

  PlanCache cache_;

  // Dispatcher state: the event queue and all job records.
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   // dispatcher wakeup
  std::condition_variable idle_cv_;    // WaitIdle wakeup
  std::deque<EventItem> queue_;
  std::map<JobId, std::unique_ptr<JobRecord>> jobs_;
  std::deque<JobId> admission_queue_;  // jobs in kQueued, FIFO with fit-based bypass
  std::deque<PlanRequest> plan_queue_;  // sessions waiting for an idle planner
  ResourceVector admitted_demand_;     // summed demand of admitted (non-queued) jobs
  JobId next_job_id_ = 1;
  int planners_in_flight_ = 0;  // sessions handed out whose outcome is not yet handled
  bool stopping_ = false;
  SchedulerStats stats_;

  std::unique_ptr<ThreadPool> planner_pool_;
  std::thread dispatcher_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace capsys

#endif  // SRC_SCHEDULER_PLACEMENT_SERVICE_H_
