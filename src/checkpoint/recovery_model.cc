#include "src/checkpoint/recovery_model.h"

#include <algorithm>

#include "src/common/str.h"

namespace capsys {
namespace {

// Blackout when no completed checkpoint is available to restore from.
constexpr double kFallbackDowntimeS = 5.0;
// Floor on the restore phase: job teardown, scheduling, and task redeploy take this long
// even for tiny state.
constexpr double kMinRestoreS = 1.0;

}  // namespace

std::string RecoveryEstimate::ToString() const {
  if (used_fallback) {
    return Sprintf("fallback blackout %.1fs (no completed checkpoint)", downtime_s);
  }
  return Sprintf(
      "restore ckpt#%llu %llu bytes in %.2fs + replay %.0f records in %.2fs -> %.2fs down "
      "(dupes %.0f, lost %.0f)",
      static_cast<unsigned long long>(checkpoint_id),
      static_cast<unsigned long long>(restored_bytes), restore_s, replayed_records, replay_s,
      downtime_s, duplicate_records, lost_records);
}

RecoveryEstimate EstimateRecovery(const CheckpointCoordinator* coordinator,
                                  double source_records, double replay_rate,
                                  double restore_bandwidth_bps, bool exactly_once) {
  RecoveryEstimate est;
  const CheckpointRecord* ckpt =
      coordinator != nullptr ? coordinator->LastCompleted() : nullptr;
  if (ckpt == nullptr) {
    // No snapshot to restore from: the job restarts empty after the fixed blackout, and
    // every record that built the lost state is gone (at-most-once).
    est.used_fallback = true;
    est.downtime_s = kFallbackDowntimeS;
    est.lost_records = coordinator != nullptr ? source_records : 0.0;
    return est;
  }
  est.checkpoint_id = ckpt->id;
  est.restored_bytes = ckpt->full_bytes;
  est.restore_s = kMinRestoreS;
  if (restore_bandwidth_bps > 1e-9) {
    est.restore_s += static_cast<double>(ckpt->full_bytes) / restore_bandwidth_bps;
  }
  est.replayed_records = std::max(0.0, source_records - ckpt->source_records);
  if (exactly_once) {
    // The sources rewind to the barrier; the backlog is re-processed inside the blackout
    // and its outputs are committed exactly once.
    est.replay_s = replay_rate > 1e-9 ? est.replayed_records / replay_rate : 0.0;
    est.downtime_s = est.restore_s + est.replay_s;
  } else {
    // At-least-once: resume from the current position — everything since the barrier was
    // already delivered once and will be delivered again by the restored state.
    est.duplicate_records = est.replayed_records;
    est.downtime_s = est.restore_s;
  }
  return est;
}

}  // namespace capsys
