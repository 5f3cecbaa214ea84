// Structured event log (observability subsystem): typed records for the decisions the
// control plane makes — placements, scalings, fault injections, backpressure episodes,
// failure verdicts, checkpoints and restores — replacing ad-hoc log strings on those paths.
// Each record serializes to one JSON object; a run's log exports as JSON Lines
// (events.jsonl in the telemetry bundle), so chaos runs can be audited with standard
// tooling.
//
// Events carry *domain* time (simulation/experiment seconds), not wall-clock time: the
// fluid simulator and the chaos driver advance a virtual clock, and decision audits need to
// line up with that timeline. Producers that own a clock pass it explicitly; nested code
// without one (e.g. the placement pipeline called from the chaos loop) uses the log's
// current domain time, which the owning driver keeps updated via set_now().
#ifndef SRC_OBS_EVENTS_H_
#define SRC_OBS_EVENTS_H_

#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace capsys {

enum class EventType : int {
  kPlacementDecision = 0,  // a placement policy chose a plan
  kScaleDecision,          // DS2 (or degraded-mode recovery) changed parallelism
  kFaultInjected,          // the injector applied a primitive fault
  kBackpressureOnset,      // query-level backpressure crossed the onset threshold
  kBackpressureCleared,    // ... and dropped back below it
  kWorkerDeclaredDead,     // the failure detector declared a worker dead
  kReconfiguration,        // the controller redeployed onto a new plan
  kRecoveryVerdict,        // outcome of a recovery attempt (incl. unplaceable)
  kCheckpointStarted,      // the coordinator injected barriers for a new checkpoint
  kCheckpointCompleted,    // all state was snapshotted and the manifest committed
  kCheckpointFailed,       // a participant crashed / a failure storm hit mid-checkpoint
  kCheckpointExpired,      // the checkpoint outlived its timeout and was discarded
  kRestoreStarted,         // recovery began restoring from a completed checkpoint
  kRestoreCompleted,       // restore + source replay finished; the job is live again
  kJobStateChanged,        // the placement service moved a job between lifecycle states
  kAdmissionDecision,      // the placement service admitted / queued / rejected a job
};

const char* EventTypeName(EventType type);

// One structured record: a type, a domain timestamp, and typed-by-convention fields
// (pre-stringified key/value pairs; the typed Emit* helpers below enforce each record's
// schema at the call site).
struct Event {
  EventType type = EventType::kPlacementDecision;
  double time_s = 0.0;
  std::vector<std::pair<std::string, std::string>> fields;

  std::string ToJson() const;
};

// Process-global, thread-safe event collector. Disabled by default; when disabled the
// typed emit helpers return before building the record.
class EventLog {
 public:
  static EventLog& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Domain clock for producers that do not own one (see file comment).
  void set_now(double time_s) { now_.store(time_s, std::memory_order_relaxed); }
  double now() const { return now_.load(std::memory_order_relaxed); }

  void Reset();
  void Emit(Event event);

  std::vector<Event> Snapshot() const;
  size_t Count() const;
  size_t CountOf(EventType type) const;
  // One JSON object per line, in emission order.
  std::string ToJsonLines() const;

 private:
  EventLog() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<double> now_{0.0};
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

// --- Typed emitters (each enforces one record schema) ---------------------------------------

void EmitPlacementDecision(double time_s, const std::string& policy, int tasks, int workers,
                           const ResourceVector& alpha, const ResourceVector& plan_cost,
                           double decision_time_s);
void EmitScaleDecision(double time_s, const std::string& reason, int slots_before,
                       int slots_after, const std::string& parallelism);
void EmitFaultInjected(double time_s, const std::string& kind, WorkerId worker, double value);
void EmitBackpressureOnset(double time_s, double backpressure);
void EmitBackpressureCleared(double time_s, double backpressure);
void EmitWorkerDeclaredDead(double time_s, WorkerId worker, bool actually_crashed);
void EmitReconfiguration(double time_s, const std::string& outcome, int slots,
                         double sustainable_rate);
void EmitRecoveryVerdict(double time_s, const std::string& outcome, int usable_workers);
void EmitCheckpointStarted(double time_s, uint64_t checkpoint_id, uint64_t full_bytes,
                           uint64_t delta_bytes);
void EmitCheckpointCompleted(double time_s, uint64_t checkpoint_id, double duration_s,
                             uint64_t delta_bytes);
void EmitCheckpointFailed(double time_s, uint64_t checkpoint_id, const std::string& reason);
void EmitCheckpointExpired(double time_s, uint64_t checkpoint_id, double timeout_s);
void EmitRestoreStarted(double time_s, uint64_t checkpoint_id, uint64_t restored_bytes);
void EmitRestoreCompleted(double time_s, uint64_t checkpoint_id, double downtime_s,
                          double replayed_records);
void EmitJobStateChanged(double time_s, int64_t job, const std::string& from,
                         const std::string& to, const std::string& detail);
void EmitAdmissionDecision(double time_s, int64_t job, const std::string& verdict, int tasks,
                           int free_slots);

}  // namespace capsys

#endif  // SRC_OBS_EVENTS_H_
