// Tests for the checkpoint & restore subsystem: coordinator lifecycle (interval,
// retention, timeout expiry, failure storms), the recovery-time model with exactly-once /
// at-least-once accounting, and the chaos-level contract that a crash mid-checkpoint
// recovers from the last *completed* checkpoint with zero lost state.
#include <gtest/gtest.h>

#include <cmath>

#include "src/checkpoint/checkpoint.h"
#include "src/checkpoint/recovery_model.h"
#include "src/controller/chaos_experiments.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_schedule.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"

namespace capsys {
namespace {

constexpr double kRate = 1000.0;  // records/s the model tests feed the coordinator

CheckpointOptions FastCheckpoint() {
  CheckpointOptions o;
  o.interval_s = 10.0;
  o.min_pause_s = 1.0;
  o.timeout_s = 60.0;
  o.retained = 2;
  o.alignment_s = 0.5;
  o.write_bandwidth_bps = 60e6;
  return o;
}

StateGrowthModel SmallState() {
  StateGrowthModel m;
  m.bytes_per_record = 64.0;
  m.max_bytes = 256ull << 20;
  return m;
}

// Advances the coordinator in 1 s ticks with the sources at `rate` records/s.
void RunTo(CheckpointCoordinator& c, double to_s, double rate = kRate) {
  double from = 0.0;
  for (double t = from + 1.0; t <= to_s + 1e-9; t += 1.0) {
    c.AdvanceTo(t, rate * t);
  }
}

// --- Coordinator lifecycle -------------------------------------------------------------------

TEST(CheckpointCoordinatorTest, TriggersOnIntervalAndBoundsRetention) {
  CheckpointCoordinator c(FastCheckpoint(), SmallState());
  RunTo(c, 65.0);
  // Interval 10 s, sub-second uploads: roughly one checkpoint per interval.
  EXPECT_GE(c.completed(), 5);
  EXPECT_EQ(c.failed(), 0);
  EXPECT_EQ(c.expired(), 0);
  // Retention window holds only the newest `retained` checkpoints...
  ASSERT_EQ(static_cast<int>(c.retained().size()), 2);
  EXPECT_LT(c.retained().front().id, c.retained().back().id);
  // ...but history keeps every attempt, in trigger order.
  ASSERT_EQ(static_cast<int>(c.history().size()), c.completed());
  for (size_t i = 1; i < c.history().size(); ++i) {
    EXPECT_LT(c.history()[i - 1].id, c.history()[i].id);
    EXPECT_LT(c.history()[i - 1].trigger_time_s, c.history()[i].trigger_time_s);
  }
  const CheckpointRecord* last = c.LastCompleted();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->id, c.retained().back().id);
  // The barrier captured the source position at the trigger.
  EXPECT_DOUBLE_EQ(last->source_records, kRate * last->trigger_time_s);
}

TEST(CheckpointCoordinatorTest, IncrementalShipsOnlyTheDelta) {
  CheckpointCoordinator inc(FastCheckpoint(), SmallState());
  RunTo(inc, 25.0);
  ASSERT_GE(inc.completed(), 2);
  const CheckpointRecord& second = inc.history()[1];
  EXPECT_LT(second.delta_bytes, second.full_bytes);
  // Delta covers exactly the records since the previous completed barrier.
  const CheckpointRecord& first = inc.history()[0];
  EXPECT_EQ(second.delta_bytes,
            static_cast<uint64_t>(SmallState().bytes_per_record *
                                  (second.source_records - first.source_records)));

  CheckpointOptions full_opts = FastCheckpoint();
  full_opts.incremental = false;
  CheckpointCoordinator full(full_opts, SmallState());
  RunTo(full, 25.0);
  ASSERT_GE(full.completed(), 2);
  EXPECT_EQ(full.history()[1].delta_bytes, full.history()[1].full_bytes);
}

TEST(CheckpointCoordinatorTest, SlowUploadExpiresAtTimeout) {
  CheckpointOptions o = FastCheckpoint();
  o.timeout_s = 5.0;
  o.write_bandwidth_bps = 1.0;  // an upload that can never finish in time
  CheckpointCoordinator c(o, SmallState());
  RunTo(c, 40.0);
  EXPECT_GE(c.expired(), 1);
  EXPECT_EQ(c.completed(), 0);
  EXPECT_EQ(c.LastCompleted(), nullptr);
  // The expired record ends exactly at trigger + timeout.
  const CheckpointRecord& e = c.history()[0];
  EXPECT_EQ(e.state, CheckpointState::kExpired);
  EXPECT_NEAR(e.end_time_s - e.trigger_time_s, o.timeout_s, 1e-9);
}

TEST(CheckpointCoordinatorTest, FailureStormFailsEveryAttemptUntilItLifts) {
  CheckpointCoordinator c(FastCheckpoint(), SmallState());
  RunTo(c, 15.0);
  ASSERT_GE(c.completed(), 1);
  const uint64_t safe_id = c.LastCompleted()->id;

  c.SetForceFail(true);  // storm: durable storage unavailable
  for (double t = 16.0; t <= 45.0; t += 1.0) {
    c.AdvanceTo(t, kRate * t);
  }
  EXPECT_GE(c.failed(), 1);
  // The storm never disturbs the last completed checkpoint.
  ASSERT_NE(c.LastCompleted(), nullptr);
  EXPECT_EQ(c.LastCompleted()->id, safe_id);

  c.SetForceFail(false);
  for (double t = 46.0; t <= 70.0; t += 1.0) {
    c.AdvanceTo(t, kRate * t);
  }
  EXPECT_GT(c.LastCompleted()->id, safe_id);
}

TEST(CheckpointCoordinatorTest, InFlightUploadChargesIoBandwidth) {
  CheckpointOptions o = FastCheckpoint();
  o.write_bandwidth_bps = 10e3;  // slow enough to observe mid-flight
  CheckpointCoordinator c(o, SmallState());
  RunTo(c, 11.0);
  ASSERT_TRUE(c.InFlight());
  // Upload rate ~= delta / upload window, bounded by the configured bandwidth.
  EXPECT_GT(c.InFlightIoBps(), 0.0);
  EXPECT_LE(c.InFlightIoBps(), o.write_bandwidth_bps * 1.01);
  c.FailInFlight(12.0, "test");
  EXPECT_FALSE(c.InFlight());
  EXPECT_DOUBLE_EQ(c.InFlightIoBps(), 0.0);
}

// --- Recovery-time model ---------------------------------------------------------------------

TEST(RecoveryModelTest, CrashMidCheckpointRestoresLastCompletedWithZeroLoss) {
  CheckpointCoordinator c(FastCheckpoint(), SmallState());
  RunTo(c, 19.0);
  ASSERT_GE(c.completed(), 1);
  const CheckpointRecord completed = *c.LastCompleted();
  c.AdvanceTo(20.0, kRate * 20.0);  // triggers checkpoint #2...
  ASSERT_TRUE(c.InFlight());
  c.FailInFlight(20.4, "participant_crash");  // ...which dies mid-flight

  const double now = 21.0;
  RecoveryEstimate est =
      EstimateRecovery(&c, kRate * now, kRate, 100e6, /*exactly_once=*/true);
  // Recovery restores the last *completed* checkpoint, never the failed attempt.
  EXPECT_FALSE(est.used_fallback);
  EXPECT_EQ(est.checkpoint_id, completed.id);
  EXPECT_EQ(est.restored_bytes, completed.full_bytes);
  // Exactly-once: the backlog since the barrier replays inside the blackout; nothing is
  // lost and nothing is delivered twice.
  EXPECT_DOUBLE_EQ(est.lost_records, 0.0);
  EXPECT_DOUBLE_EQ(est.duplicate_records, 0.0);
  EXPECT_NEAR(est.replayed_records, kRate * now - completed.source_records, 1e-6);
  EXPECT_NEAR(est.replay_s, est.replayed_records / kRate, 1e-9);
  EXPECT_NEAR(est.downtime_s, est.restore_s + est.replay_s, 1e-9);

  // At-least-once: shorter blackout, but every replayed record is a duplicate.
  RecoveryEstimate alo =
      EstimateRecovery(&c, kRate * now, kRate, 100e6, /*exactly_once=*/false);
  EXPECT_DOUBLE_EQ(alo.lost_records, 0.0);
  EXPECT_DOUBLE_EQ(alo.duplicate_records, alo.replayed_records);
  EXPECT_LT(alo.downtime_s, est.downtime_s);
  EXPECT_NEAR(alo.downtime_s, alo.restore_s, 1e-9);
}

TEST(RecoveryModelTest, FallsBackToFixedBlackoutWithoutCheckpoints) {
  // Checkpointing disabled entirely: the fixed 5 s blackout, no loss accounting.
  RecoveryEstimate off = EstimateRecovery(nullptr, 1e5, kRate, 100e6, /*exactly_once=*/true);
  EXPECT_TRUE(off.used_fallback);
  EXPECT_DOUBLE_EQ(off.downtime_s, 5.0);
  EXPECT_DOUBLE_EQ(off.lost_records, 0.0);
  // Checkpointing on but nothing ever completed: restart empty — the state is gone.
  CheckpointCoordinator c(FastCheckpoint(), SmallState());
  c.AdvanceTo(5.0, kRate * 5.0);  // before the first trigger
  RecoveryEstimate none =
      EstimateRecovery(&c, kRate * 5.0, kRate, 100e6, /*exactly_once=*/true);
  EXPECT_TRUE(none.used_fallback);
  EXPECT_DOUBLE_EQ(none.downtime_s, 5.0);
  EXPECT_DOUBLE_EQ(none.lost_records, kRate * 5.0);
}

TEST(RecoveryModelTest, DowntimeGrowsWithStateSizeAndBacklog) {
  CheckpointOptions o = FastCheckpoint();
  StateGrowthModel small = SmallState();
  StateGrowthModel large = SmallState();
  large.bytes_per_record = 64.0 * 16;
  CheckpointCoordinator cs(o, small);
  CheckpointCoordinator cl(o, large);
  RunTo(cs, 35.0);
  RunTo(cl, 35.0);
  RecoveryEstimate es = EstimateRecovery(&cs, kRate * 40.0, kRate, 20e6, /*exactly_once=*/true);
  RecoveryEstimate el = EstimateRecovery(&cl, kRate * 40.0, kRate, 20e6, /*exactly_once=*/true);
  EXPECT_GT(el.restored_bytes, es.restored_bytes);
  EXPECT_GT(el.restore_s, es.restore_s);
  EXPECT_GT(el.downtime_s, es.downtime_s);
  // A later failure point means a longer backlog since the same barrier.
  RecoveryEstimate later =
      EstimateRecovery(&cs, kRate * 44.0, kRate, 20e6, /*exactly_once=*/true);
  EXPECT_GT(later.replayed_records, es.replayed_records);
  EXPECT_GT(later.downtime_s, es.downtime_s);
}

// --- Checkpoint-failure storms as scheduled faults -------------------------------------------

TEST(CheckpointFaultTest, StormToggleExpandsAndDrivesInjector) {
  FaultSchedule s;
  s.CheckpointFailureStorm(30.0, 20.0);
  auto prims = s.Expand();
  ASSERT_EQ(prims.size(), 2u);
  EXPECT_EQ(prims[0].kind, PrimitiveFault::Kind::kSetCheckpointFail);
  EXPECT_DOUBLE_EQ(prims[0].value, 1.0);
  EXPECT_DOUBLE_EQ(prims[1].time_s, 50.0);
  EXPECT_DOUBLE_EQ(prims[1].value, 0.0);

  FaultInjector injector(s, 2, 1);
  injector.AdvanceTo(10.0, nullptr);
  EXPECT_FALSE(injector.CheckpointsFailing());
  injector.AdvanceTo(35.0, nullptr);
  EXPECT_TRUE(injector.CheckpointsFailing());
  injector.AdvanceTo(55.0, nullptr);
  EXPECT_FALSE(injector.CheckpointsFailing());
}

// --- End-to-end: chaos runs with checkpointing -----------------------------------------------

ChaosExperimentOptions CheckpointedChaos() {
  ChaosExperimentOptions o;
  o.policy = PlacementPolicy::kFlinkEvenly;
  o.run_s = 180.0;
  o.seed = 11;
  o.upscale_cooldown_s = 20.0;
  o.use_checkpointing = true;
  o.checkpoint.interval_s = 15.0;
  o.checkpoint.min_pause_s = 1.0;
  o.exactly_once = true;
  return o;
}

TEST(ChaosCheckpointTest, CrashRecoveryReplaysFromLastBarrierWithZeroLoss) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  FaultSchedule s;
  s.Crash(60.0, 1).Restore(140.0, 1);
  ChaosRun run = RunChaosExperiment(q, cluster, s, CheckpointedChaos());
  // Checkpoints completed before the crash, so recovery restored one and replayed the
  // backlog — no state or records were lost under exactly-once.
  EXPECT_GE(run.checkpoints_completed, 1);
  EXPECT_GE(run.reconfigurations, 1);
  EXPECT_GT(run.replayed_records, 0.0);
  EXPECT_DOUBLE_EQ(run.lost_records, 0.0);
  EXPECT_DOUBLE_EQ(run.duplicate_records, 0.0);
  EXPECT_GT(run.restore_downtime_s, 0.0);
  // Replayed-record counts per reconfiguration land in the run telemetry.
  const TimeSeries* replayed = run.telemetry.Find("chaos.0.replayed_records");
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->points().size(), static_cast<size_t>(run.reconfigurations));
}

TEST(ChaosCheckpointTest, AtLeastOnceTradesDuplicatesForShorterBlackout) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  FaultSchedule s;
  s.Crash(60.0, 1).Restore(140.0, 1);
  ChaosExperimentOptions eo = CheckpointedChaos();
  ChaosExperimentOptions alo = CheckpointedChaos();
  alo.exactly_once = false;
  ChaosRun run_eo = RunChaosExperiment(q, cluster, s, eo);
  ChaosRun run_alo = RunChaosExperiment(q, cluster, s, alo);
  ASSERT_GE(run_eo.reconfigurations, 1);
  ASSERT_GE(run_alo.reconfigurations, 1);
  EXPECT_DOUBLE_EQ(run_eo.duplicate_records, 0.0);
  EXPECT_GT(run_alo.duplicate_records, 0.0);
  EXPECT_LT(run_alo.restore_downtime_s, run_eo.restore_downtime_s);
}

TEST(ChaosCheckpointTest, FailureStormForcesOlderRestorePoint) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  // The storm covers [40, 100): every checkpoint in that window fails. The crash at 90
  // must restore a barrier from before the storm — a longer replay than without it.
  FaultSchedule with_storm;
  with_storm.CheckpointFailureStorm(40.0, 60.0);
  with_storm.Crash(90.0, 1).Restore(150.0, 1);
  FaultSchedule without_storm;
  without_storm.Crash(90.0, 1).Restore(150.0, 1);
  ChaosRun storm = RunChaosExperiment(q, cluster, with_storm, CheckpointedChaos());
  ChaosRun clean = RunChaosExperiment(q, cluster, without_storm, CheckpointedChaos());
  EXPECT_GE(storm.checkpoints_failed, 1);
  ASSERT_GE(storm.reconfigurations, 1);
  ASSERT_GE(clean.reconfigurations, 1);
  // Still zero loss — the pre-storm checkpoint covers the state — but more to replay.
  EXPECT_DOUBLE_EQ(storm.lost_records, 0.0);
  EXPECT_GT(storm.replayed_records, clean.replayed_records);
}

}  // namespace
}  // namespace capsys
