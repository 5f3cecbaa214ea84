// Recovery-time model (robustness extension): how long a reconfiguration or failure
// recovery actually blacks the job out, derived from checkpoint state instead of a fixed
// constant. Restore time is snapshot bytes over the workers' disk bandwidth; replay time is
// the source backlog since the last completed checkpoint barrier over the new plan's
// sustainable rate. The split gives the two delivery-guarantee accountings:
//   - exactly-once: outputs since the barrier were not committed, so the sources rewind and
//     the replay happens inside the blackout — longer downtime, zero lost and zero
//     duplicate records;
//   - at-least-once: outputs since the barrier were already delivered, so the sources
//     resume from their current position — shorter downtime, but every replayed record is
//     delivered again (counted as duplicates).
// When checkpointing is disabled (coordinator == nullptr) or nothing ever completed, the
// model falls back to a fixed 5 s blackout, the paper's restart downtime.
#ifndef SRC_CHECKPOINT_RECOVERY_MODEL_H_
#define SRC_CHECKPOINT_RECOVERY_MODEL_H_

#include <cstdint>
#include <string>

#include "src/checkpoint/checkpoint.h"

namespace capsys {

struct RecoveryEstimate {
  bool used_fallback = false;   // no completed checkpoint — fixed blackout applied
  uint64_t checkpoint_id = 0;   // restored checkpoint (0 when used_fallback)
  uint64_t restored_bytes = 0;  // full snapshot bytes re-materialized on local disks
  double restore_s = 0.0;       // restored_bytes / restore bandwidth (+ floor)
  double replay_s = 0.0;        // exactly-once only: backlog / replay rate
  double downtime_s = 0.0;      // restore_s + replay_s, or the fallback
  double replayed_records = 0.0;   // records between the barrier and the failure point
  double duplicate_records = 0.0;  // at-least-once: replayed records delivered twice
  double lost_records = 0.0;       // always 0 when restoring from a completed checkpoint

  std::string ToString() const;
};

// Estimates the blackout for a recovery with the sources at cumulative position
// `source_records`. `replay_rate` is the rate the restored plan re-processes the backlog at
// (the plan's sustainable rate); `restore_bandwidth_bps` the aggregate disk bandwidth the
// snapshot is re-materialized at. `exactly_once` picks the delivery guarantee: true replays
// inside the blackout, false resumes immediately and counts replayed records as
// duplicates. `coordinator` may be null (checkpointing disabled) — the fixed fallback
// applies.
RecoveryEstimate EstimateRecovery(const CheckpointCoordinator* coordinator,
                                  double source_records, double replay_rate,
                                  double restore_bandwidth_bps, bool exactly_once);

}  // namespace capsys

#endif  // SRC_CHECKPOINT_RECOVERY_MODEL_H_
