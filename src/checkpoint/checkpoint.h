// Checkpoint coordinator (robustness extension): aligned, Chandy–Lamport-style snapshots
// on a configurable interval, with per-checkpoint timeout, failure/expiry handling, and a
// retained-checkpoints window — the Flink fault-tolerance contract CAPSys inherits (§2.2).
//
// The coordinator is analytic and time-driven: the experiment drivers advance it on their
// domain clock and it models each checkpoint's lifecycle — barrier alignment, snapshot
// upload at a bounded write bandwidth, completion or failure — without doing real I/O.
// State size comes from a StateGrowthModel (bytes appended per source record, saturating at
// a window-eviction cap), so checkpoint size, duration, and the recovery time derived from
// them all scale with workload exactly as the paper's cost model assumes. The chaos driver
// charges the in-flight upload rate into the simulator's worker I/O dimension, so checkpoint
// traffic contends with compaction (§3.3).
#ifndef SRC_CHECKPOINT_CHECKPOINT_H_
#define SRC_CHECKPOINT_CHECKPOINT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"

namespace capsys {

struct CheckpointOptions {
  // Trigger cadence (Flink: execution.checkpointing.interval).
  double interval_s = 30.0;
  // Minimum pause between the end of one checkpoint and the next trigger.
  double min_pause_s = 2.0;
  // A checkpoint still in flight this long after its trigger is discarded as expired.
  double timeout_s = 120.0;
  // Completed checkpoints kept restorable (Flink: state.checkpoints.num-retained).
  int retained = 2;
  // Ship only state written since the last completed checkpoint (RocksDB incremental).
  bool incremental = true;
  // Barrier alignment overhead per checkpoint: the time for barriers to flow through the
  // pipeline and tasks to align their input channels.
  double alignment_s = 0.5;
  // Aggregate snapshot upload bandwidth across all stateful tasks (bytes/s). Checkpoint
  // duration = alignment_s + delta_bytes / write_bandwidth_bps.
  double write_bandwidth_bps = 60e6;
};

// Live state size as a function of the source position. Windowed operators retain a
// bounded history, so growth saturates at `max_bytes` (eviction keeps up with appends).
struct StateGrowthModel {
  double bytes_per_record = 64.0;
  uint64_t max_bytes = 256ull << 20;

  uint64_t BytesAt(double source_records) const {
    double b = bytes_per_record * source_records;
    double cap = static_cast<double>(max_bytes);
    return static_cast<uint64_t>(b < cap ? b : cap);
  }
};

enum class CheckpointState : int {
  kInProgress = 0,
  kCompleted,
  kFailed,    // a participant crashed or a failure storm hit mid-checkpoint
  kExpired,   // outlived timeout_s
};

const char* CheckpointStateName(CheckpointState state);

struct CheckpointRecord {
  uint64_t id = 0;
  double trigger_time_s = 0.0;
  double end_time_s = 0.0;  // completion / failure / expiry time
  CheckpointState state = CheckpointState::kInProgress;
  uint64_t full_bytes = 0;   // live state at the barrier
  uint64_t delta_bytes = 0;  // bytes shipped (== full_bytes when not incremental / first)
  // Source position (cumulative records emitted) captured by the barrier — the replay
  // point recovery rewinds the sources to.
  double source_records = 0.0;
  std::string failure_reason;

  std::string ToString() const;
};

// Drives the checkpoint lifecycle on the caller's domain clock. All telemetry (typed
// events, duration/size histograms, outcome counters) flows through the observability
// subsystem; pass a registry to collect the instruments into a run's telemetry bundle.
class CheckpointCoordinator {
 public:
  CheckpointCoordinator(CheckpointOptions options, StateGrowthModel model,
                        MetricsRegistry* telemetry = nullptr);

  // Advances the coordinator to `now` (monotonically non-decreasing), with the sources at
  // cumulative position `source_records`. Triggers new checkpoints on the configured
  // cadence and completes/expires the in-flight one when its end time passes.
  void AdvanceTo(double now, double source_records);

  // Fails the in-flight checkpoint (worker crash mid-checkpoint, job reconfiguration).
  // No-op when nothing is in flight.
  void FailInFlight(double now, const std::string& reason);

  // Checkpoint-failure storm: while set, every checkpoint fails at the moment it would
  // have completed (the injector toggles this from FaultType::kCheckpointFailure).
  void SetForceFail(bool force_fail) { force_fail_ = force_fail; }

  bool InFlight() const { return in_flight_; }
  // Extra disk traffic (bytes/s) while a snapshot upload is in flight; zero otherwise.
  // Drivers charge this into the workers' I/O dimension so checkpointing contends with
  // compaction.
  double InFlightIoBps() const;

  // The newest completed checkpoint, or nullptr when none ever completed. Recovery always
  // restores from this record — never from an in-flight or failed attempt.
  const CheckpointRecord* LastCompleted() const;
  // Completed checkpoints still restorable, oldest first (bounded by options.retained).
  const std::deque<CheckpointRecord>& retained() const { return retained_; }
  // Every checkpoint ever triggered, in trigger order, with its final state.
  const std::vector<CheckpointRecord>& history() const { return history_; }

  int triggered() const { return triggered_; }
  int completed() const { return completed_; }
  int failed() const { return failed_; }
  int expired() const { return expired_; }

  const CheckpointOptions& options() const { return options_; }
  const StateGrowthModel& model() const { return model_; }

  std::string ToString() const;

 private:
  void Finish(CheckpointState state, double at, const std::string& reason);

  CheckpointOptions options_;
  StateGrowthModel model_;
  MetricsRegistry* telemetry_ = nullptr;  // not owned; may be null

  double now_ = 0.0;
  double next_trigger_s_;
  uint64_t next_id_ = 1;
  bool force_fail_ = false;

  bool in_flight_ = false;
  CheckpointRecord current_;
  double current_end_s_ = 0.0;  // when the in-flight checkpoint completes (or expires)

  std::deque<CheckpointRecord> retained_;
  std::vector<CheckpointRecord> history_;
  int triggered_ = 0;
  int completed_ = 0;
  int failed_ = 0;
  int expired_ = 0;
};

}  // namespace capsys

#endif  // SRC_CHECKPOINT_CHECKPOINT_H_
