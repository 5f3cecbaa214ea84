// Deterministic, seedable fault schedules (robustness extension; StreamShield-style chaos
// testing, see PAPERS.md). A FaultSchedule is a list of timed FaultEvents — worker crashes
// and restores, transient slowdowns (stragglers), flapping workers, heartbeat-loss episodes
// and checkpoint-failure storms — that the FaultInjector replays tick-by-tick against a
// FluidSimulator. The same schedule + seed always yields the same fault timeline, so chaos
// experiments are exactly reproducible across placement policies.
#ifndef SRC_FAULTS_FAULT_SCHEDULE_H_
#define SRC_FAULTS_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace capsys {

enum class FaultType : int {
  kCrash = 0,           // worker dies at time_s (stays down until restored)
  kRestore,             // worker comes back
  kSlowdown,            // capacity degraded to `factor` for `duration_s`, then restored
  kFlap,                // `cycles` crash/restore cycles of `period_s` each (half down, half up)
  kMetricDropout,       // worker heartbeats lost w.p. `factor` for `duration_s`
  kCheckpointFailure,   // every checkpoint attempted during the episode fails (storm)
};

const char* FaultTypeName(FaultType type);

// One scheduled fault. `worker` is kInvalidId for cluster-wide faults (metric dropout and
// checkpoint-failure storms). `factor` is overloaded per type: slowdown capacity fraction
// in (0, 1], or heartbeat-loss probability. Cluster-wide faults last `duration_s` and then
// switch off.
struct FaultEvent {
  double time_s = 0.0;
  FaultType type = FaultType::kCrash;
  WorkerId worker = kInvalidId;
  double factor = 1.0;
  double duration_s = 0.0;
  int cycles = 0;  // kFlap only
  double period_s = 0.0;  // kFlap only

  std::string ToString() const;
};

// A primitive state transition the injector applies. Compound events (slowdowns, flaps,
// timed cluster-wide episodes) expand into pairs/series of these.
struct PrimitiveFault {
  enum class Kind : int {
    kCrash = 0,
    kRestore,
    kSetDegrade,    // value = capacity factor (1.0 restores full speed)
    kSetDropout,    // value = heartbeat-loss probability (0 switches off)
    kSetCheckpointFail,  // value = 1 storms on / 0 off (checkpoints fail while on)
  };
  double time_s = 0.0;
  Kind kind = Kind::kCrash;
  WorkerId worker = kInvalidId;
  double value = 0.0;

  std::string ToString() const;
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  // Builder-style composition; all return *this for chaining.
  FaultSchedule& Crash(double time_s, WorkerId worker);
  FaultSchedule& Restore(double time_s, WorkerId worker);
  // Worker runs at `factor` (0 < factor <= 1) of normal capacity for `duration_s`.
  FaultSchedule& Slowdown(double time_s, WorkerId worker, double factor, double duration_s);
  // `cycles` crash/restore cycles: down for period_s/2, up for period_s/2, repeated.
  FaultSchedule& Flap(double time_s, WorkerId worker, double period_s, int cycles);
  // Every worker heartbeat due in [time_s, time_s + duration_s) is lost w.p. `probability`.
  FaultSchedule& MetricDropout(double time_s, double probability, double duration_s);
  // Checkpoint-failure storm: the durable checkpoint storage is unavailable for
  // `duration_s` — every checkpoint attempted in the window fails, so recovery falls back
  // to ever-older completed checkpoints (and ever-longer source replay).
  FaultSchedule& CheckpointFailureStorm(double time_s, double duration_s);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Flattens compound events into primitive transitions, stably sorted by time. The
  // expansion is fully deterministic — no randomness is involved.
  std::vector<PrimitiveFault> Expand() const;

  std::string ToString() const;

  // Options for generating a random (but seed-deterministic) schedule. Each draw is a
  // crash, slowdown, flap or metric dropout; their shapes are fixed in fault_schedule.cc.
  struct RandomOptions {
    int num_faults = 8;
    double min_time_s = 30.0;    // no faults before the query warms up
    double horizon_s = 300.0;    // faults drawn uniformly in [min_time_s, horizon_s]
  };

  // Generated crashes and flaps never overlap more than this many at a time; guards
  // against schedules that kill the whole cluster.
  static constexpr int kMaxConcurrentCrashes = 2;

  // Generates a schedule of `options.num_faults` events over `num_workers` workers.
  // Identical (num_workers, options, seed) triples yield identical schedules.
  static FaultSchedule Random(int num_workers, const RandomOptions& options, uint64_t seed);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace capsys

#endif  // SRC_FAULTS_FAULT_SCHEDULE_H_
