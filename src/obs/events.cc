#include "src/obs/events.h"

#include "src/common/str.h"
#include "src/obs/json_util.h"

namespace capsys {
namespace {

std::string Num(double v) { return Sprintf("%.6g", v); }

}  // namespace

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kPlacementDecision:
      return "PlacementDecision";
    case EventType::kScaleDecision:
      return "ScaleDecision";
    case EventType::kFaultInjected:
      return "FaultInjected";
    case EventType::kBackpressureOnset:
      return "BackpressureOnset";
    case EventType::kBackpressureCleared:
      return "BackpressureCleared";
    case EventType::kWorkerDeclaredDead:
      return "WorkerDeclaredDead";
    case EventType::kReconfiguration:
      return "Reconfiguration";
    case EventType::kRecoveryVerdict:
      return "RecoveryVerdict";
    case EventType::kCheckpointStarted:
      return "CheckpointStarted";
    case EventType::kCheckpointCompleted:
      return "CheckpointCompleted";
    case EventType::kCheckpointFailed:
      return "CheckpointFailed";
    case EventType::kCheckpointExpired:
      return "CheckpointExpired";
    case EventType::kRestoreStarted:
      return "RestoreStarted";
    case EventType::kRestoreCompleted:
      return "RestoreCompleted";
    case EventType::kJobStateChanged:
      return "JobStateChanged";
    case EventType::kAdmissionDecision:
      return "AdmissionDecision";
  }
  return "?";
}

std::string Event::ToJson() const {
  std::string out = Sprintf("{\"type\":\"%s\",\"t\":%s", EventTypeName(type),
                            JsonNumber(time_s).c_str());
  for (const auto& [key, value] : fields) {
    out += Sprintf(",\"%s\":", JsonEscape(key).c_str());
    // Numeric-looking field values are emitted as JSON numbers, the rest as strings.
    if (IsJsonNumber(value)) {
      out += value;
    } else if (value == "true" || value == "false") {
      out += value;
    } else {
      out += Sprintf("\"%s\"", JsonEscape(value).c_str());
    }
  }
  out += "}";
  return out;
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

void EventLog::Emit(Event event) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<Event> EventLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t EventLog::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t EventLog::CountOf(EventType type) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Event& e : events_) {
    n += e.type == type ? 1 : 0;
  }
  return n;
}

std::string EventLog::ToJsonLines() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Event& e : events_) {
    out += e.ToJson();
    out += '\n';
  }
  return out;
}

void EmitPlacementDecision(double time_s, const std::string& policy, int tasks, int workers,
                           const ResourceVector& alpha, const ResourceVector& plan_cost,
                           double decision_time_s) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kPlacementDecision, time_s, {}};
  e.fields = {{"policy", policy},
              {"tasks", Sprintf("%d", tasks)},
              {"workers", Sprintf("%d", workers)},
              {"alpha_cpu", Num(alpha.cpu)},
              {"alpha_io", Num(alpha.io)},
              {"alpha_net", Num(alpha.net)},
              {"cost_cpu", Num(plan_cost.cpu)},
              {"cost_io", Num(plan_cost.io)},
              {"cost_net", Num(plan_cost.net)},
              {"decision_time_s", Num(decision_time_s)}};
  log.Emit(std::move(e));
}

void EmitScaleDecision(double time_s, const std::string& reason, int slots_before,
                       int slots_after, const std::string& parallelism) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kScaleDecision, time_s, {}};
  e.fields = {{"reason", reason},
              {"slots_before", Sprintf("%d", slots_before)},
              {"slots_after", Sprintf("%d", slots_after)},
              {"parallelism", parallelism}};
  log.Emit(std::move(e));
}

void EmitFaultInjected(double time_s, const std::string& kind, WorkerId worker, double value) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kFaultInjected, time_s, {}};
  e.fields = {{"kind", kind}, {"worker", Sprintf("%d", worker)}, {"value", Num(value)}};
  log.Emit(std::move(e));
}

void EmitBackpressureOnset(double time_s, double backpressure) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kBackpressureOnset, time_s, {{"backpressure", Num(backpressure)}}};
  log.Emit(std::move(e));
}

void EmitBackpressureCleared(double time_s, double backpressure) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kBackpressureCleared, time_s, {{"backpressure", Num(backpressure)}}};
  log.Emit(std::move(e));
}

void EmitWorkerDeclaredDead(double time_s, WorkerId worker, bool actually_crashed) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kWorkerDeclaredDead, time_s, {}};
  e.fields = {{"worker", Sprintf("%d", worker)},
              {"actually_crashed", actually_crashed ? "true" : "false"}};
  log.Emit(std::move(e));
}

void EmitReconfiguration(double time_s, const std::string& outcome, int slots,
                         double sustainable_rate) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kReconfiguration, time_s, {}};
  e.fields = {{"outcome", outcome},
              {"slots", Sprintf("%d", slots)},
              {"sustainable_rate", Num(sustainable_rate)}};
  log.Emit(std::move(e));
}

void EmitRecoveryVerdict(double time_s, const std::string& outcome, int usable_workers) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kRecoveryVerdict, time_s, {}};
  e.fields = {{"outcome", outcome}, {"usable_workers", Sprintf("%d", usable_workers)}};
  log.Emit(std::move(e));
}

void EmitCheckpointStarted(double time_s, uint64_t checkpoint_id, uint64_t full_bytes,
                           uint64_t delta_bytes) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kCheckpointStarted, time_s, {}};
  e.fields = {{"checkpoint_id", Sprintf("%llu", static_cast<unsigned long long>(checkpoint_id))},
              {"full_bytes", Sprintf("%llu", static_cast<unsigned long long>(full_bytes))},
              {"delta_bytes", Sprintf("%llu", static_cast<unsigned long long>(delta_bytes))}};
  log.Emit(std::move(e));
}

void EmitCheckpointCompleted(double time_s, uint64_t checkpoint_id, double duration_s,
                             uint64_t delta_bytes) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kCheckpointCompleted, time_s, {}};
  e.fields = {{"checkpoint_id", Sprintf("%llu", static_cast<unsigned long long>(checkpoint_id))},
              {"duration_s", Num(duration_s)},
              {"delta_bytes", Sprintf("%llu", static_cast<unsigned long long>(delta_bytes))}};
  log.Emit(std::move(e));
}

void EmitCheckpointFailed(double time_s, uint64_t checkpoint_id, const std::string& reason) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kCheckpointFailed, time_s, {}};
  e.fields = {{"checkpoint_id", Sprintf("%llu", static_cast<unsigned long long>(checkpoint_id))},
              {"reason", reason}};
  log.Emit(std::move(e));
}

void EmitCheckpointExpired(double time_s, uint64_t checkpoint_id, double timeout_s) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kCheckpointExpired, time_s, {}};
  e.fields = {{"checkpoint_id", Sprintf("%llu", static_cast<unsigned long long>(checkpoint_id))},
              {"timeout_s", Num(timeout_s)}};
  log.Emit(std::move(e));
}

void EmitRestoreStarted(double time_s, uint64_t checkpoint_id, uint64_t restored_bytes) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kRestoreStarted, time_s, {}};
  e.fields = {{"checkpoint_id", Sprintf("%llu", static_cast<unsigned long long>(checkpoint_id))},
              {"restored_bytes",
               Sprintf("%llu", static_cast<unsigned long long>(restored_bytes))}};
  log.Emit(std::move(e));
}

void EmitRestoreCompleted(double time_s, uint64_t checkpoint_id, double downtime_s,
                          double replayed_records) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kRestoreCompleted, time_s, {}};
  e.fields = {{"checkpoint_id", Sprintf("%llu", static_cast<unsigned long long>(checkpoint_id))},
              {"downtime_s", Num(downtime_s)},
              {"replayed_records", Num(replayed_records)}};
  log.Emit(std::move(e));
}

void EmitJobStateChanged(double time_s, int64_t job, const std::string& from,
                         const std::string& to, const std::string& detail) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kJobStateChanged, time_s, {}};
  e.fields = {{"job", Sprintf("%lld", static_cast<long long>(job))},
              {"from", from},
              {"to", to},
              {"detail", detail}};
  log.Emit(std::move(e));
}

void EmitAdmissionDecision(double time_s, int64_t job, const std::string& verdict, int tasks,
                           int free_slots) {
  EventLog& log = EventLog::Global();
  if (!log.enabled()) {
    return;
  }
  Event e{EventType::kAdmissionDecision, time_s, {}};
  e.fields = {{"job", Sprintf("%lld", static_cast<long long>(job))},
              {"verdict", verdict},
              {"tasks", Sprintf("%d", tasks)},
              {"free_slots", Sprintf("%d", free_slots)}};
  log.Emit(std::move(e));
}

}  // namespace capsys
