#include "src/controller/failure_detector.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/str.h"

namespace capsys {

const char* WorkerHealthName(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kAlive:
      return "alive";
    case WorkerHealth::kSuspected:
      return "suspected";
    case WorkerHealth::kDead:
      return "dead";
  }
  return "?";
}

FailureDetector::FailureDetector(int num_workers) : workers_(static_cast<size_t>(num_workers)) {
  CAPSYS_CHECK(num_workers > 0);
}

void FailureDetector::RecordHeartbeat(WorkerId w, double now_s) {
  WorkerState& state = workers_[static_cast<size_t>(w)];
  state.last_heartbeat_s = now_s;
  state.misses = 0;
  if (state.health == WorkerHealth::kDead) {
    CAPSYS_LOG_INFO("detector", Sprintf("w%d heartbeating again at t=%.1f", w, now_s));
  }
  state.health = WorkerHealth::kAlive;
}

std::vector<WorkerId> FailureDetector::Tick(double now_s) {
  std::vector<WorkerId> newly_dead;
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerState& state = workers_[i];
    // One miss per fully elapsed timeout period since the last beat.
    int misses = static_cast<int>(
        std::floor((now_s - state.last_heartbeat_s) / kTimeoutS + 1e-9));
    if (misses <= state.misses) {
      continue;
    }
    state.misses = misses;
    if (state.misses >= kDeadAfterMisses) {
      if (state.health != WorkerHealth::kDead) {
        state.health = WorkerHealth::kDead;
        ++deaths_declared_;
        newly_dead.push_back(static_cast<WorkerId>(i));
        // Flap tracking: repeated deaths within the window trigger exponential backoff.
        state.death_times_s.push_back(now_s);
        while (!state.death_times_s.empty() &&
               state.death_times_s.front() < now_s - kFlapWindowS) {
          state.death_times_s.pop_front();
        }
        if (static_cast<int>(state.death_times_s.size()) >= kFlapDeathsToBlacklist) {
          double backoff =
              kBlacklistBaseS * std::pow(2.0, static_cast<double>(state.times_blacklisted));
          backoff = std::min(backoff, kBlacklistMaxS);
          state.times_blacklisted += 1;
          state.blacklist_until_s = std::max(state.blacklist_until_s, now_s + backoff);
          CAPSYS_LOG_WARN("detector",
                          Sprintf("w%zu flapping (%zu deaths in %.0fs): blacklisted for %.0fs",
                                  i, state.death_times_s.size(), kFlapWindowS,
                                  backoff));
        }
      }
    } else if (state.health == WorkerHealth::kAlive) {
      state.health = WorkerHealth::kSuspected;
    }
  }
  return newly_dead;
}

WorkerHealth FailureDetector::HealthOf(WorkerId w) const {
  return workers_[static_cast<size_t>(w)].health;
}

bool FailureDetector::IsBlacklisted(WorkerId w, double now_s) const {
  return workers_[static_cast<size_t>(w)].blacklist_until_s > now_s;
}

bool FailureDetector::IsUsable(WorkerId w, double now_s) const {
  return HealthOf(w) != WorkerHealth::kDead && !IsBlacklisted(w, now_s);
}

std::vector<bool> FailureDetector::UsableMask(double now_s) const {
  std::vector<bool> mask(workers_.size(), false);
  for (size_t i = 0; i < workers_.size(); ++i) {
    mask[i] = IsUsable(static_cast<WorkerId>(i), now_s);
  }
  return mask;
}

int FailureDetector::NumUsable(double now_s) const {
  int n = 0;
  for (size_t i = 0; i < workers_.size(); ++i) {
    n += IsUsable(static_cast<WorkerId>(i), now_s) ? 1 : 0;
  }
  return n;
}

std::string FailureDetector::ToString(double now_s) const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < workers_.size(); ++i) {
    const WorkerState& s = workers_[i];
    parts.push_back(Sprintf("w%zu:%s%s", i, WorkerHealthName(s.health),
                            IsBlacklisted(static_cast<WorkerId>(i), now_s) ? "(bl)" : ""));
  }
  return Join(parts, " ");
}

}  // namespace capsys
