// Replays a FaultSchedule against a running FluidSimulator and models the telemetry the
// controller sees while faults are active: worker heartbeats, delayed by slowdowns and lost
// to crashes and metric dropout. The injector is also the ground truth oracle — chaos
// drivers compare the failure detector's verdicts against IsCrashed() to count false
// positives.
#ifndef SRC_FAULTS_FAULT_INJECTOR_H_
#define SRC_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/faults/fault_schedule.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {

class FaultInjector {
 public:
  // Workers emit one heartbeat per interval; a worker degraded to factor f emits every
  // interval/f (slow nodes report late, which is what drives detector suspicion).
  static constexpr double kHeartbeatIntervalS = 1.0;

  FaultInjector(const FaultSchedule& schedule, int num_workers, uint64_t seed);

  // Applies every primitive fault with time <= now to the truth state and (when `sim` is
  // non-null) to the simulator. `now` must be monotonically non-decreasing across calls.
  void AdvanceTo(double now, FluidSimulator* sim);

  // Re-applies the current crashes and slowdowns to a freshly constructed simulator — call
  // after a reconfiguration replaces the runtime mid-run.
  void ApplyCurrentState(FluidSimulator* sim) const;

  // Heartbeats due in (previous call, now] that actually reach the controller. Crashed
  // workers emit nothing; active metric dropout loses each beat with its probability;
  // degraded workers emit at a slowed cadence. Deterministic for a fixed seed and call
  // pattern. The returned buffer is reused: it holds this call's beats until the next call.
  const std::vector<WorkerId>& CollectHeartbeats(double now);

  // Ground truth.
  bool IsCrashed(WorkerId w) const { return crashed_[static_cast<size_t>(w)]; }
  // True while a checkpoint-failure storm is active — the checkpoint coordinator consults
  // this to fail every checkpoint attempted in the window.
  bool CheckpointsFailing() const { return checkpoint_failing_; }

  std::string ToString() const;

 private:
  std::vector<PrimitiveFault> timeline_;
  size_t next_ = 0;
  double now_ = 0.0;

  std::vector<bool> crashed_;
  std::vector<double> degrade_;
  bool checkpoint_failing_ = false;
  double heartbeat_loss_p_ = 0.0;  // set by metric dropout episodes

  std::vector<double> next_beat_s_;
  std::vector<WorkerId> delivered_;  // CollectHeartbeats' result, cleared on each call
  Rng heartbeat_rng_;
};

}  // namespace capsys

#endif  // SRC_FAULTS_FAULT_INJECTOR_H_
