// Heartbeat-based failure detection with suspicion and flap blacklisting (robustness
// extension; StreamShield-style resiliency, see PAPERS.md).
//
// Each worker heartbeats the controller at the FaultInjector's cadence. The detector counts
// one miss per elapsed kTimeoutS without a beat: after the first miss a worker is
// *suspected* (still usable — slow workers and lossy telemetry must not trigger
// re-placement), and only after kDeadAfterMisses consecutive misses is it declared *dead*.
// Any beat resets the worker to alive.
//
// Workers that are declared dead repeatedly within a sliding window are flapping: they get
// blacklisted with exponential backoff (base * 2^(n-1), capped), so the placement search
// stops bouncing tasks onto a worker that will die again moments later.
#ifndef SRC_CONTROLLER_FAILURE_DETECTOR_H_
#define SRC_CONTROLLER_FAILURE_DETECTOR_H_

#include <deque>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace capsys {

enum class WorkerHealth : int { kAlive = 0, kSuspected = 1, kDead = 2 };

const char* WorkerHealthName(WorkerHealth health);

class FailureDetector {
 public:
  // No beat for this long counts as one miss (exceeds the 1 s heartbeat interval by a
  // comfortable margin so jittery-but-alive workers are merely suspected).
  static constexpr double kTimeoutS = 3.0;
  // Consecutive misses before a suspected worker is declared dead.
  static constexpr int kDeadAfterMisses = 3;
  // Declared dead this many times within kFlapWindowS => blacklisted.
  static constexpr int kFlapDeathsToBlacklist = 2;
  static constexpr double kFlapWindowS = 120.0;
  // Exponential backoff before a blacklisted worker may host tasks again.
  static constexpr double kBlacklistBaseS = 30.0;
  static constexpr double kBlacklistMaxS = 480.0;

  explicit FailureDetector(int num_workers);

  // A heartbeat from `w` arrived at `now_s`. Resets misses; a dead worker comes back as
  // alive (blacklisting, tracked separately, may still exclude it from placement).
  void RecordHeartbeat(WorkerId w, double now_s);

  // Advances suspicion/death state to `now_s`. Returns the workers newly declared dead by
  // this call (each death is reported exactly once).
  std::vector<WorkerId> Tick(double now_s);

  WorkerHealth HealthOf(WorkerId w) const;
  bool IsBlacklisted(WorkerId w, double now_s) const;
  // Usable = not dead and not blacklisted. Suspected workers remain usable: a transient
  // straggler must not trigger re-placement.
  bool IsUsable(WorkerId w, double now_s) const;
  std::vector<bool> UsableMask(double now_s) const;
  int NumUsable(double now_s) const;

  int deaths_declared() const { return deaths_declared_; }
  double BlacklistedUntil(WorkerId w) const {
    return workers_[static_cast<size_t>(w)].blacklist_until_s;
  }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  std::string ToString(double now_s) const;

 private:
  struct WorkerState {
    double last_heartbeat_s = 0.0;
    int misses = 0;
    WorkerHealth health = WorkerHealth::kAlive;
    std::deque<double> death_times_s;  // recent deaths, pruned to kFlapWindowS
    int times_blacklisted = 0;
    double blacklist_until_s = -1.0;
  };

  std::vector<WorkerState> workers_;
  int deaths_declared_ = 0;
};

}  // namespace capsys

#endif  // SRC_CONTROLLER_FAILURE_DETECTOR_H_
