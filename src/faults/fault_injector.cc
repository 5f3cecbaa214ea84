#include "src/faults/fault_injector.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/obs/events.h"

namespace capsys {

namespace {

const char* FaultKindName(PrimitiveFault::Kind kind) {
  using Kind = PrimitiveFault::Kind;
  switch (kind) {
    case Kind::kCrash:
      return "crash";
    case Kind::kRestore:
      return "restore";
    case Kind::kSetDegrade:
      return "degrade";
    case Kind::kSetDropout:
      return "metric_dropout_p";
    case Kind::kSetCheckpointFail:
      return "checkpoint_fail";
  }
  return "?";
}

}  // namespace

FaultInjector::FaultInjector(const FaultSchedule& schedule, int num_workers, uint64_t seed)
    : timeline_(schedule.Expand()),
      crashed_(static_cast<size_t>(num_workers), false),
      degrade_(static_cast<size_t>(num_workers), 1.0),
      heartbeat_rng_(seed) {
  CAPSYS_CHECK(num_workers > 0);
  next_beat_s_.assign(static_cast<size_t>(num_workers), kHeartbeatIntervalS);
  delivered_.reserve(static_cast<size_t>(num_workers));
}

void FaultInjector::AdvanceTo(double now, FluidSimulator* sim) {
  CAPSYS_CHECK_MSG(now + 1e-9 >= now_, "injector time must not go backwards");
  while (next_ < timeline_.size() && timeline_[next_].time_s <= now + 1e-9) {
    const PrimitiveFault& f = timeline_[next_];
    EmitFaultInjected(f.time_s, FaultKindName(f.kind), f.worker, f.value);
    using Kind = PrimitiveFault::Kind;
    switch (f.kind) {
      case Kind::kCrash:
        crashed_[static_cast<size_t>(f.worker)] = true;
        if (sim != nullptr) {
          sim->FailWorker(f.worker);
        }
        break;
      case Kind::kRestore:
        crashed_[static_cast<size_t>(f.worker)] = false;
        if (sim != nullptr) {
          sim->RestoreWorker(f.worker);
        }
        break;
      case Kind::kSetDegrade:
        degrade_[static_cast<size_t>(f.worker)] = f.value;
        if (sim != nullptr) {
          sim->DegradeWorker(f.worker, f.value);
        }
        break;
      case Kind::kSetDropout:
        heartbeat_loss_p_ = f.value;
        break;
      case Kind::kSetCheckpointFail:
        checkpoint_failing_ = f.value > 0.0;
        break;
    }
    ++next_;
  }
  now_ = std::max(now_, now);
}

void FaultInjector::ApplyCurrentState(FluidSimulator* sim) const {
  CAPSYS_CHECK(sim != nullptr);
  for (size_t w = 0; w < crashed_.size(); ++w) {
    if (crashed_[w]) {
      sim->FailWorker(static_cast<WorkerId>(w));
    }
    if (degrade_[w] < 1.0) {
      sim->DegradeWorker(static_cast<WorkerId>(w), degrade_[w]);
    }
  }
}

const std::vector<WorkerId>& FaultInjector::CollectHeartbeats(double now) {
  delivered_.clear();
  for (size_t w = 0; w < next_beat_s_.size(); ++w) {
    while (next_beat_s_[w] <= now + 1e-9) {
      // A degraded worker heartbeats at a slowed cadence; a crashed worker skips the beat
      // entirely but its cadence keeps advancing so beats resume promptly after a restore.
      double interval = kHeartbeatIntervalS / std::max(degrade_[w], 0.05);
      bool emitted = !crashed_[w];
      bool lost = heartbeat_loss_p_ > 0.0 && heartbeat_rng_.Bernoulli(heartbeat_loss_p_);
      if (emitted && !lost) {
        delivered_.push_back(static_cast<WorkerId>(w));
      }
      next_beat_s_[w] += crashed_[w] ? kHeartbeatIntervalS : interval;
    }
  }
  return delivered_;
}

std::string FaultInjector::ToString() const {
  std::vector<std::string> down;
  std::vector<std::string> slow;
  for (size_t w = 0; w < crashed_.size(); ++w) {
    if (crashed_[w]) {
      down.push_back(Sprintf("w%zu", w));
    }
    if (degrade_[w] < 1.0) {
      slow.push_back(Sprintf("w%zu@%.2f", w, degrade_[w]));
    }
  }
  return Sprintf("t=%.1f down=[%s] slow=[%s] dropout=%.2f", now_, Join(down, ",").c_str(),
                 Join(slow, ",").c_str(), heartbeat_loss_p_);
}

}  // namespace capsys
