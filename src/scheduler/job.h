// Per-job lifecycle model of the online placement service.
//
// State machine (driven exclusively by the service's serialized event dispatcher):
//
//   Submitted --admit--> Planning --commit--> Deploying --> Running --rescale--> Rescaling
//       |                  ^  |                                   |                 |
//       | no capacity now  |  | no capacity at plan time          | worker death    |
//       v   capacity freed |  v                                   v                 |
//       +-------------> Queued <----------no capacity--------- Recovering           |
//       |                  ^                                                        |
//       |                  +------------------no capacity---------------------------+
//       +----> Rejected (invalid, or larger than the cluster)
//
//   Any live state --cancel--> Terminated.
//
// Planning, Rescaling and Recovering each wait for one plan, which the dispatcher commits
// to move the job on to Deploying and Running. A commit conflict replans in the same
// state; a plan that finds no capacity queues the job. Rejected and Terminated are
// terminal. Queued jobs hold no reservation; Recovering jobs may hold a partial
// reservation (their slots on surviving workers) until the replan commits a fresh one.
#ifndef SRC_SCHEDULER_JOB_H_
#define SRC_SCHEDULER_JOB_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/dataflow/logical_graph.h"
#include "src/dataflow/placement.h"
#include "src/scheduler/cluster_view.h"

namespace capsys {

enum class JobState : int {
  kSubmitted = 0,  // accepted into the event queue, admission pending
  kQueued,         // admission deferred: does not fit now, waiting for capacity
  kPlanning,       // waiting for or running on a planner; the dispatcher commits the plan
  kDeploying,      // reservation committed, plan handed to the runtime
  kRunning,        // live
  kRescaling,      // re-planning at a new parallelism (DS2 / user rescale)
  kRecovering,     // lost workers; re-planning onto the survivors
  kTerminated,     // cancelled or completed; reservation released
  kRejected,       // admission refused (kRejectedCapacity) or invalid spec
};

const char* JobStateName(JobState state);

// Structured admission verdicts (never a CHECK abort).
enum class AdmissionOutcome : int {
  kAdmitted = 0,        // fits the current free capacity; proceed to Planning
  kQueuedCapacity,      // fits the cluster, not the current free capacity; wait
  kRejectedCapacity,    // cannot fit the cluster even when empty
  kRejectedInvalid,     // malformed spec (bad graph or source rates, empty)
};

const char* AdmissionOutcomeName(AdmissionOutcome outcome);

// What a client submits. The graph carries per-operator profiles (the cost model's unit
// costs); the service derives demands analytically from them — profiled costs can be baked
// into the profiles by the caller when available.
struct JobSpec {
  std::string name;
  LogicalGraph graph;
  // Target records/s per source operator: finite, non-negative, keyed on sources only.
  std::map<OperatorId, double> source_rates;
  // Allow the recovery path to down-scale parallelism when the survivors cannot host the
  // job at full parallelism (graceful degradation); off = queue until capacity returns.
  bool allow_degraded_recovery = true;
};

// Read-only status snapshot returned to clients.
struct JobStatus {
  JobId id = kInvalidJobId;
  std::string name;
  JobState state = JobState::kSubmitted;
  AdmissionOutcome admission = AdmissionOutcome::kAdmitted;
  Placement placement;            // valid from Deploying onward
  std::vector<int> parallelism;   // current (possibly degraded) parallelism
  ResourceVector alpha;           // thresholds the plan satisfied
  ResourceVector plan_cost;       // cost vector of the committed plan
  ResourceVector demand;          // aggregate cpu/io/net demand (admission accounting)
  int tasks = 0;                  // total tasks of the committed plan
  bool degraded = false;          // running below submitted parallelism
  bool plan_from_cache = false;   // last committed plan was a plan-cache hit
  int plan_attempts = 0;          // plans made, replans after a conflict included
  int commit_conflicts = 0;       // commits that conflicted and were replanned
  int recoveries = 0;             // worker-death replans
  double submit_time_s = 0.0;     // service wall clock, seconds since service start
  double running_time_s = -1.0;   // first entered Running (-1 = never)
  double decision_latency_s = -1.0;  // submit -> first Running
  double planning_time_s = 0.0;      // cumulative planner time (search + tuning)
  std::string detail;             // human-readable last transition reason

  std::string ToString() const;
};

}  // namespace capsys

#endif  // SRC_SCHEDULER_JOB_H_
