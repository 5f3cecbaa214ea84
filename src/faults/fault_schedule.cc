#include "src/faults/fault_schedule.h"

#include <algorithm>
#include <iterator>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/str.h"

namespace capsys {
namespace {

// Shapes of the faults FaultSchedule::Random draws.
constexpr double kRestoreAfterS = 60.0;  // crashes auto-restore after this long
constexpr double kSlowdownFactor = 0.3;
constexpr double kSlowdownDurationS = 40.0;
constexpr double kFlapPeriodS = 10.0;
constexpr int kFlapCycles = 3;
constexpr double kDropoutP = 0.3;
constexpr double kMetricDurationS = 30.0;

}  // namespace

const char* FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kCrash:
      return "crash";
    case FaultType::kRestore:
      return "restore";
    case FaultType::kSlowdown:
      return "slowdown";
    case FaultType::kFlap:
      return "flap";
    case FaultType::kMetricDropout:
      return "metric_dropout";
    case FaultType::kCheckpointFailure:
      return "checkpoint_failure";
  }
  return "?";
}

std::string FaultEvent::ToString() const {
  switch (type) {
    case FaultType::kCrash:
    case FaultType::kRestore:
      return Sprintf("t=%.1f %s w%d", time_s, FaultTypeName(type), worker);
    case FaultType::kSlowdown:
      return Sprintf("t=%.1f slowdown w%d factor=%.2f dur=%.1fs", time_s, worker, factor,
                     duration_s);
    case FaultType::kFlap:
      return Sprintf("t=%.1f flap w%d period=%.1fs cycles=%d", time_s, worker, period_s,
                     cycles);
    case FaultType::kMetricDropout:
      return Sprintf("t=%.1f %s %.2f dur=%.1fs", time_s, FaultTypeName(type), factor,
                     duration_s);
    case FaultType::kCheckpointFailure:
      return Sprintf("t=%.1f checkpoint_failure dur=%.1fs", time_s, duration_s);
  }
  return "?";
}

std::string PrimitiveFault::ToString() const {
  switch (kind) {
    case Kind::kCrash:
      return Sprintf("t=%.1f crash w%d", time_s, worker);
    case Kind::kRestore:
      return Sprintf("t=%.1f restore w%d", time_s, worker);
    case Kind::kSetDegrade:
      return Sprintf("t=%.1f degrade w%d %.2f", time_s, worker, value);
    case Kind::kSetDropout:
      return Sprintf("t=%.1f dropout %.2f", time_s, value);
    case Kind::kSetCheckpointFail:
      return Sprintf("t=%.1f checkpoint_fail %s", time_s, value > 0.0 ? "on" : "off");
  }
  return "?";
}

FaultSchedule& FaultSchedule::Crash(double time_s, WorkerId worker) {
  events_.push_back(FaultEvent{.time_s = time_s, .type = FaultType::kCrash, .worker = worker});
  return *this;
}

FaultSchedule& FaultSchedule::Restore(double time_s, WorkerId worker) {
  events_.push_back(
      FaultEvent{.time_s = time_s, .type = FaultType::kRestore, .worker = worker});
  return *this;
}

FaultSchedule& FaultSchedule::Slowdown(double time_s, WorkerId worker, double factor,
                                       double duration_s) {
  CAPSYS_CHECK_MSG(factor > 0.0 && factor <= 1.0, "slowdown factor must be in (0, 1]");
  events_.push_back(FaultEvent{.time_s = time_s,
                               .type = FaultType::kSlowdown,
                               .worker = worker,
                               .factor = factor,
                               .duration_s = duration_s});
  return *this;
}

FaultSchedule& FaultSchedule::Flap(double time_s, WorkerId worker, double period_s,
                                   int cycles) {
  CAPSYS_CHECK_MSG(period_s > 0.0 && cycles > 0, "flap needs a positive period and cycles");
  events_.push_back(FaultEvent{.time_s = time_s,
                               .type = FaultType::kFlap,
                               .worker = worker,
                               .duration_s = period_s * cycles,
                               .cycles = cycles,
                               .period_s = period_s});
  return *this;
}

FaultSchedule& FaultSchedule::MetricDropout(double time_s, double probability,
                                            double duration_s) {
  events_.push_back(FaultEvent{.time_s = time_s,
                               .type = FaultType::kMetricDropout,
                               .factor = probability,
                               .duration_s = duration_s});
  return *this;
}

FaultSchedule& FaultSchedule::CheckpointFailureStorm(double time_s, double duration_s) {
  CAPSYS_CHECK_MSG(duration_s > 0.0, "checkpoint failure storm needs a positive duration");
  events_.push_back(FaultEvent{.time_s = time_s,
                               .type = FaultType::kCheckpointFailure,
                               .duration_s = duration_s});
  return *this;
}

std::vector<PrimitiveFault> FaultSchedule::Expand() const {
  using Kind = PrimitiveFault::Kind;
  std::vector<PrimitiveFault> out;
  for (const FaultEvent& e : events_) {
    switch (e.type) {
      case FaultType::kCrash:
        out.push_back({e.time_s, Kind::kCrash, e.worker, 0.0});
        break;
      case FaultType::kRestore:
        out.push_back({e.time_s, Kind::kRestore, e.worker, 0.0});
        break;
      case FaultType::kSlowdown:
        out.push_back({e.time_s, Kind::kSetDegrade, e.worker, e.factor});
        out.push_back({e.time_s + e.duration_s, Kind::kSetDegrade, e.worker, 1.0});
        break;
      case FaultType::kFlap:
        for (int k = 0; k < e.cycles; ++k) {
          double cycle_start = e.time_s + k * e.period_s;
          out.push_back({cycle_start, Kind::kCrash, e.worker, 0.0});
          out.push_back({cycle_start + e.period_s / 2.0, Kind::kRestore, e.worker, 0.0});
        }
        break;
      case FaultType::kMetricDropout:
        out.push_back({e.time_s, Kind::kSetDropout, kInvalidId, e.factor});
        out.push_back({e.time_s + e.duration_s, Kind::kSetDropout, kInvalidId, 0.0});
        break;
      case FaultType::kCheckpointFailure:
        out.push_back({e.time_s, Kind::kSetCheckpointFail, kInvalidId, 1.0});
        out.push_back({e.time_s + e.duration_s, Kind::kSetCheckpointFail, kInvalidId, 0.0});
        break;
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const PrimitiveFault& a, const PrimitiveFault& b) {
                     return a.time_s < b.time_s;
                   });
  return out;
}

std::string FaultSchedule::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(events_.size());
  for (const FaultEvent& e : events_) {
    parts.push_back(e.ToString());
  }
  return Join(parts, "; ");
}

FaultSchedule FaultSchedule::Random(int num_workers, const RandomOptions& options,
                                    uint64_t seed) {
  CAPSYS_CHECK(num_workers > 0);
  Rng rng(seed);
  FaultSchedule schedule;
  // Crashed-interval bookkeeping so generated crashes never take down more than
  // kMaxConcurrentCrashes workers at once.
  struct Outage {
    double from, to;
    WorkerId worker;
  };
  std::vector<Outage> outages;
  auto concurrent_crashes = [&](double from, double to) {
    int n = 0;
    for (const Outage& o : outages) {
      if (o.from < to && from < o.to) {
        ++n;
      }
    }
    return n;
  };

  constexpr FaultType kMix[] = {FaultType::kCrash, FaultType::kSlowdown, FaultType::kFlap,
                                FaultType::kMetricDropout};

  for (int i = 0; i < options.num_faults; ++i) {
    double t = rng.Uniform(options.min_time_s, options.horizon_s);
    FaultType type = kMix[rng.NextBounded(std::size(kMix))];
    WorkerId w = static_cast<WorkerId>(rng.NextBounded(static_cast<uint64_t>(num_workers)));
    switch (type) {
      case FaultType::kCrash: {
        double end = t + kRestoreAfterS;
        if (concurrent_crashes(t, end) >= kMaxConcurrentCrashes) {
          continue;  // would exceed the blast-radius cap; skip this draw
        }
        schedule.Crash(t, w).Restore(end, w);
        outages.push_back({t, end, w});
        break;
      }
      case FaultType::kSlowdown:
        schedule.Slowdown(t, w, kSlowdownFactor, kSlowdownDurationS);
        break;
      case FaultType::kFlap: {
        double end = t + kFlapPeriodS * kFlapCycles;
        if (concurrent_crashes(t, end) >= kMaxConcurrentCrashes) {
          continue;
        }
        schedule.Flap(t, w, kFlapPeriodS, kFlapCycles);
        outages.push_back({t, end, w});
        break;
      }
      case FaultType::kMetricDropout:
        schedule.MetricDropout(t, kDropoutP, kMetricDurationS);
        break;
      case FaultType::kRestore:
      case FaultType::kCheckpointFailure:
        break;  // never drawn
    }
  }
  // Present events in time order regardless of draw order.
  std::stable_sort(schedule.events_.begin(), schedule.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  return schedule;
}

}  // namespace capsys
