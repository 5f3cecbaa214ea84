// Tests for the online multi-job placement service (src/scheduler): the versioned cluster
// view's optimistic commit protocol, the plan cache keys, and the full service under
// concurrent submitters, admission pressure, and crash storms. The concurrency tests are
// run under ASan and TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/caps/plan_cache.h"
#include "src/common/str.h"
#include "src/controller/recovery.h"
#include "src/dataflow/physical_graph.h"
#include "src/dataflow/rates.h"
#include "src/nexmark/queries.h"
#include "src/scheduler/cluster_view.h"
#include "src/scheduler/job.h"
#include "src/scheduler/placement_service.h"

namespace capsys {
namespace {

// source -> map(p) -> sink pipeline: 2 + p tasks, all edges hash-partitioned (scalable).
JobSpec MakePipelineJob(const std::string& name, int map_parallelism, double rate) {
  JobSpec spec;
  spec.name = name;
  spec.graph = LogicalGraph(name);
  OperatorProfile src_profile;
  src_profile.cpu_per_record = 1e-6;
  OperatorProfile map_profile;
  map_profile.cpu_per_record = 5e-6;
  map_profile.io_bytes_per_record = 50;
  map_profile.stateful = true;
  OperatorProfile sink_profile;
  sink_profile.cpu_per_record = 1e-6;
  OperatorId src = spec.graph.AddOperator("src", OperatorKind::kSource, src_profile, 1);
  OperatorId map =
      spec.graph.AddOperator("map", OperatorKind::kMap, map_profile, map_parallelism);
  OperatorId sink = spec.graph.AddOperator("sink", OperatorKind::kSink, sink_profile, 1);
  spec.graph.AddEdge(src, map, PartitionScheme::kHash);
  spec.graph.AddEdge(map, sink, PartitionScheme::kHash);
  spec.source_rates[src] = rate;
  return spec;
}

SchedulerOptions WithPlanners(int planner_threads) {
  SchedulerOptions options;
  options.planner_threads = planner_threads;
  return options;
}

int SumReservation(const SlotReservation& r) {
  int total = 0;
  for (int slots : r) {
    total += slots;
  }
  return total;
}

// ---------------------------------------------------------------- ClusterView protocol --

TEST(ClusterViewTest, SnapshotCommitRelease) {
  ClusterView view(Cluster(2, WorkerSpec{.slots = 4}));
  ClusterSnapshot snap = view.Snapshot();
  EXPECT_EQ(snap.total_free, 8);
  EXPECT_EQ(view.TryCommit(1, snap.epoch, {3, 1}), CommitResult::kCommitted);
  EXPECT_EQ(view.TotalFreeSlots(), 4);
  EXPECT_EQ(SumReservation(view.ReservationOf(1)), 4);
  EXPECT_EQ(view.CheckInvariants(), "");
  EXPECT_TRUE(view.Release(1));
  EXPECT_EQ(view.TotalFreeSlots(), 8);
  EXPECT_FALSE(view.Release(1));
  EXPECT_EQ(view.CheckInvariants(), "");
}

TEST(ClusterViewTest, StaleCommitRevalidates) {
  ClusterView view(Cluster(2, WorkerSpec{.slots = 4}));
  ClusterSnapshot snap_b = view.Snapshot();
  ASSERT_EQ(view.TryCommit(1, snap_b.epoch, {2, 0}), CommitResult::kCommitted);
  // Non-intersecting reservation still fits: committed as stale.
  EXPECT_EQ(view.TryCommit(2, snap_b.epoch, {0, 3}), CommitResult::kCommittedStale);
  // Overlapping reservation that no longer fits: conflict, never a double-booking.
  EXPECT_EQ(view.TryCommit(3, snap_b.epoch, {3, 1}), CommitResult::kConflict);
  EXPECT_EQ(view.CheckInvariants(), "");
}

TEST(ClusterViewTest, MakeBeforeBreakSwap) {
  ClusterView view(Cluster(2, WorkerSpec{.slots = 4}));
  ASSERT_EQ(view.TryCommit(1, view.epoch(), {4, 0}), CommitResult::kCommitted);
  // The job's own slots count as free in its snapshot, so it can move 4 -> {2, 2}.
  ClusterSnapshot snap = view.SnapshotFor(1);
  EXPECT_EQ(snap.total_free, 8);
  EXPECT_EQ(view.TryCommit(1, snap.epoch, {2, 2}), CommitResult::kCommitted);
  EXPECT_EQ(view.TotalFreeSlots(), 4);
  EXPECT_EQ(view.CheckInvariants(), "");
}

TEST(ClusterViewTest, WorkerDeathDropsReservationsAndReportsAffected) {
  ClusterView view(Cluster(3, WorkerSpec{.slots = 4}));
  ASSERT_EQ(view.TryCommit(1, view.epoch(), {2, 2, 0}), CommitResult::kCommitted);
  ASSERT_EQ(view.TryCommit(2, view.epoch(), {0, 0, 3}), CommitResult::kCommitted);
  std::map<JobId, int> affected = view.MarkWorkerDown(1);
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[1], 2);
  EXPECT_FALSE(view.IsWorkerUsable(1));
  EXPECT_EQ(view.TotalSlots(), 8);
  EXPECT_EQ(SumReservation(view.ReservationOf(1)), 2);  // survivors only
  EXPECT_EQ(view.CheckInvariants(), "");
  // Commits touching the dead worker conflict until it is restored.
  EXPECT_EQ(view.TryCommit(3, view.epoch(), {0, 1, 0}), CommitResult::kConflict);
  view.MarkWorkerUp(1);
  EXPECT_EQ(view.TryCommit(3, view.epoch(), {0, 1, 0}), CommitResult::kCommitted);
  EXPECT_EQ(view.CheckInvariants(), "");
}

TEST(ClusterViewTest, ConcurrentCommittersNeverDoubleBook) {
  const int kWorkers = 4;
  const int kSlots = 4;
  const int kThreads = 8;
  ClusterView view(Cluster(kWorkers, WorkerSpec{.slots = kSlots}));
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&view, &committed, t] {
      // Each thread fights to reserve 2 slots somewhere, retrying on conflict.
      for (int attempt = 0; attempt < 200; ++attempt) {
        ClusterSnapshot snap = view.Snapshot();
        SlotReservation want(kWorkers, 0);
        int need = 2;
        for (int w = 0; w < kWorkers && need > 0; ++w) {
          int take = std::min(need, snap.free_slots[static_cast<size_t>(w)]);
          want[static_cast<size_t>(w)] = take;
          need -= take;
        }
        if (need > 0) {
          return;  // cluster full; this thread loses
        }
        if (view.TryCommit(t + 1, snap.epoch, want) != CommitResult::kConflict) {
          committed.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(view.CheckInvariants(), "");
  EXPECT_EQ(committed.load(), kWorkers * kSlots / 2);  // exactly the slots available
  EXPECT_EQ(view.TotalFreeSlots(), 0);
}

// ---------------------------------------------------------------------- PlanCache keys --

TEST(PlanCacheTest, FingerprintInvariantUnderUniformRateScaling) {
  JobSpec a = MakePipelineJob("a", 3, 1e4);
  JobSpec b = MakePipelineJob("b", 3, 2e4);  // same shape, double the rate
  EXPECT_EQ(JobGraphFingerprint(a.graph, a.source_rates),
            JobGraphFingerprint(b.graph, b.source_rates));
  JobSpec c = MakePipelineJob("c", 4, 1e4);  // different parallelism
  EXPECT_NE(JobGraphFingerprint(a.graph, a.source_rates),
            JobGraphFingerprint(c.graph, c.source_rates));
}

TEST(PlanCacheTest, KeyChangesWithIoHeavyProfileOfSameShape) {
  Cluster cluster(2, WorkerSpec{});
  JobSpec a = MakePipelineJob("a", 3, 1e4);
  JobSpec doubled = MakePipelineJob("a", 3, 2e4);
  EXPECT_EQ(PlanCache::Key(a.graph, a.source_rates, cluster),
            PlanCache::Key(doubled.graph, doubled.source_rates, cluster));
  // Same operators, edges and parallelism, but the map now stresses the disk: the demand
  // shape differs, so the plan and thresholds may too.
  JobSpec io_heavy = MakePipelineJob("a", 3, 1e4);
  io_heavy.graph.mutable_op(1).profile.io_bytes_per_record = 200e3;
  EXPECT_NE(PlanCache::Key(a.graph, a.source_rates, cluster),
            PlanCache::Key(io_heavy.graph, io_heavy.source_rates, cluster));
}

TEST(PlanCacheTest, DeadAndFullWorkerGiveSameResidualKey) {
  Cluster cluster(3, WorkerSpec{.slots = 4});
  ClusterView view(cluster);
  JobSpec job = MakePipelineJob("j", 3, 1e4);
  auto residual_key = [&] {
    return PlanCache::Key(job.graph, job.source_rates,
                          view.SnapshotFor(2).ResidualCluster(cluster));
  };
  std::string all_free = residual_key();
  // Worker 0 full with another job's tasks...
  ASSERT_EQ(view.TryCommit(1, view.epoch(), {4, 0, 0}), CommitResult::kCommitted);
  std::string full = residual_key();
  EXPECT_NE(full, all_free);
  // ... or dead: the planner sees the same residual cluster either way.
  ASSERT_TRUE(view.Release(1));
  view.MarkWorkerDown(0);
  EXPECT_EQ(residual_key(), full);
}

TEST(PlanCacheTest, LruEvictionAndCounters) {
  PlanCache cache(2);
  cache.Insert("a", CachedPlan{Placement(1), {}, {}});
  cache.Insert("b", CachedPlan{Placement(2), {}, {}});
  EXPECT_TRUE(cache.Lookup("a").has_value());  // refresh a; b is now LRU
  cache.Insert("c", CachedPlan{Placement(3), {}, {}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCacheTest, ConcurrentLookupAndInsert) {
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  static constexpr size_t kCapacity = 16;
  PlanCache cache(kCapacity);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = Sprintf("k%d", (i * 7 + t) % 40);
        auto hit = cache.Lookup(key);
        if (hit.has_value()) {
          // An entry is always whole: the placement and alpha written together.
          EXPECT_EQ(hit->placement.num_tasks(), static_cast<int>(hit->alpha.cpu));
        } else {
          int tasks = 1 + (i + t) % 5;
          cache.Insert(key,
                       CachedPlan{Placement(tasks), {static_cast<double>(tasks), 0, 0}, {}});
        }
        EXPECT_LE(cache.size(), kCapacity);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(cache.hits() + cache.misses(), static_cast<uint64_t>(kThreads * kOps));
  EXPECT_LE(cache.size(), kCapacity);
}

// ------------------------------------------------------------------- PlacementService --

TEST(PlacementServiceTest, SingleJobRunsWithValidPlacement) {
  Cluster cluster(4, WorkerSpec{.slots = 4});
  PlacementService service(cluster);
  JobId id = service.Submit(MakePipelineJob("single", 4, 1e4));
  ASSERT_TRUE(service.WaitIdle(20.0));
  JobStatus status = service.Status(id);
  EXPECT_EQ(status.state, JobState::kRunning);
  EXPECT_EQ(status.admission, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(status.tasks, 6);
  EXPECT_GE(status.decision_latency_s, 0.0);
  // The committed placement satisfies the §4.1 constraints on the full cluster.
  JobSpec spec = MakePipelineJob("single", 4, 1e4);
  PhysicalGraph physical = PhysicalGraph::Expand(spec.graph);
  EXPECT_EQ(status.placement.Validate(physical, cluster), "");
  EXPECT_EQ(SumReservation(service.view().ReservationOf(id)), 6);
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

TEST(PlacementServiceTest, ConcurrentSubmittersLoseNoJobs) {
  const int kThreads = 6;
  const int kJobsPerThread = 6;
  Cluster cluster(24, WorkerSpec{.slots = 8});
  PlacementService service(cluster, WithPlanners(4));
  std::vector<std::vector<JobId>> ids(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &ids, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        ids[static_cast<size_t>(t)].push_back(
            service.Submit(MakePipelineJob("job", 2, 5e3)));
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }
  ASSERT_TRUE(service.WaitIdle(60.0));
  // No lost and no duplicated ids.
  std::set<JobId> unique;
  for (const auto& batch : ids) {
    for (JobId id : batch) {
      EXPECT_NE(id, kInvalidJobId);
      EXPECT_TRUE(unique.insert(id).second) << "duplicate job id " << id;
    }
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads * kJobsPerThread));
  std::vector<JobStatus> statuses = service.AllStatuses();
  EXPECT_EQ(statuses.size(), unique.size());
  int running = 0;
  for (const JobStatus& s : statuses) {
    EXPECT_TRUE(unique.count(s.id)) << "untracked job id " << s.id;
    if (s.state == JobState::kRunning) {
      ++running;
    }
  }
  // 36 jobs x 4 tasks = 144 tasks on 192 slots: everything runs.
  EXPECT_EQ(running, kThreads * kJobsPerThread);
  EXPECT_EQ(service.view().CheckInvariants(), "");
  SchedulerStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(stats.plans_committed, static_cast<uint64_t>(running));
}

TEST(PlacementServiceTest, AdmissionRejectsOversizedJobStructurally) {
  Cluster cluster(2, WorkerSpec{.slots = 2});
  PlacementService service(cluster);
  // 8 tasks on a 4-slot cluster can never fit: structured rejection, no CHECK abort.
  JobId id = service.Submit(MakePipelineJob("too-big", 6, 1e3));
  ASSERT_TRUE(service.WaitIdle(20.0));
  JobStatus status = service.Status(id);
  EXPECT_EQ(status.state, JobState::kRejected);
  EXPECT_EQ(status.admission, AdmissionOutcome::kRejectedCapacity);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(PlacementServiceTest, AdmissionRejectsInvalidSpec) {
  PlacementService service(Cluster(2, WorkerSpec{.slots = 4}));
  JobSpec empty;
  empty.name = "empty";
  JobId id = service.Submit(std::move(empty));
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_EQ(service.Status(id).state, JobState::kRejected);
  EXPECT_EQ(service.Status(id).admission, AdmissionOutcome::kRejectedInvalid);
}

// A negative or non-finite rate would enter admission as a negative or NaN demand, and a
// rate keyed on a non-source operator would be ignored; all are rejected as invalid input.
TEST(PlacementServiceTest, AdmissionRejectsInvalidSourceRates) {
  PlacementService service(Cluster(2, WorkerSpec{.slots = 4}));
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::map<OperatorId, double>> bad_rates = {
      {{0, -1e6}},                                       // negative
      {{0, std::numeric_limits<double>::quiet_NaN()}},  // not finite
      {{0, kInf}},
      {{0, 1e3}, {2, 1e3}},   // keyed on the sink
      {{0, 1e3}, {99, 1e3}},  // keyed on no operator of the graph
  };
  std::vector<JobId> ids;
  for (const auto& rates : bad_rates) {
    JobSpec spec = MakePipelineJob("bad-rates", 2, 1e3);
    spec.source_rates = rates;
    ids.push_back(service.Submit(std::move(spec)));
  }
  ASSERT_TRUE(service.WaitIdle(20.0));
  for (JobId id : ids) {
    EXPECT_EQ(service.Status(id).state, JobState::kRejected) << id;
    EXPECT_EQ(service.Status(id).admission, AdmissionOutcome::kRejectedInvalid) << id;
  }
  EXPECT_EQ(service.stats().rejected, bad_rates.size());
  EXPECT_EQ(service.stats().admitted, 0u);
}

// source(p) -forward-> map(p) -> sink: CAPS cannot place the forward channels of a
// parallel source, so the service must refuse such a job instead of aborting on it.
JobSpec MakeForwardJob(int parallelism) {
  JobSpec spec = MakePipelineJob("forward", parallelism, 1e3);
  LogicalGraph graph("forward");
  for (const auto& op : spec.graph.operators()) {
    graph.AddOperator(op.name, op.kind, op.profile,
                      op.kind == OperatorKind::kSink ? 1 : parallelism);
  }
  graph.AddEdge(0, 1, PartitionScheme::kForward);
  graph.AddEdge(1, 2, PartitionScheme::kHash);
  spec.graph = std::move(graph);
  return spec;
}

TEST(PlacementServiceTest, ForwardEdgeOutOfParallelOperatorIsRejected) {
  PlacementService service(Cluster(2, WorkerSpec{.slots = 4}));
  JobId id = service.Submit(MakeForwardJob(2));
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_EQ(service.Status(id).state, JobState::kRejected);
  EXPECT_EQ(service.Status(id).admission, AdmissionOutcome::kRejectedInvalid);
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

TEST(PlacementServiceTest, RescaleOfForwardEndpointsIsIgnored) {
  PlacementService service(Cluster(2, WorkerSpec{.slots = 4}));
  JobId id = service.Submit(MakeForwardJob(1));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(id).state, JobState::kRunning);
  service.Rescale(id, {2, 2, 1});  // valid graph, but not CAPS-searchable
  service.Rescale(id, {1, 2, 1});  // breaks forward-edge parallelism equality
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_EQ(service.Status(id).state, JobState::kRunning);
  EXPECT_EQ(service.Status(id).parallelism, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(SumReservation(service.view().ReservationOf(id)), 3);
}

TEST(PlacementServiceTest, QueuedJobAdmittedWhenCapacityFrees) {
  Cluster cluster(2, WorkerSpec{.slots = 2});
  PlacementService service(cluster);
  JobId first = service.Submit(MakePipelineJob("first", 2, 1e3));  // 4 tasks: fills it
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(first).state, JobState::kRunning);
  JobId second = service.Submit(MakePipelineJob("second", 1, 1e3));  // 3 tasks: must wait
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_EQ(service.Status(second).state, JobState::kQueued);
  EXPECT_EQ(service.Status(second).admission, AdmissionOutcome::kQueuedCapacity);
  // Cancelling the resident job frees its slots and re-admits the queued one.
  service.Cancel(first);
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_EQ(service.Status(first).state, JobState::kTerminated);
  EXPECT_EQ(service.Status(second).state, JobState::kRunning);
  EXPECT_EQ(SumReservation(service.view().ReservationOf(first)), 0);
  EXPECT_EQ(service.view().CheckInvariants(), "");
  SchedulerStats stats = service.stats();
  EXPECT_GE(stats.queued, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(PlacementServiceTest, WorkerDeathTriggersDegradedRecovery) {
  Cluster cluster(2, WorkerSpec{.slots = 4});
  PlacementService service(cluster);
  JobId id = service.Submit(MakePipelineJob("degrade", 5, 1e3));  // 7 tasks on 8 slots
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(id).state, JobState::kRunning);
  service.OnWorkerDead(1);
  ASSERT_TRUE(service.WaitIdle(20.0));
  JobStatus status = service.Status(id);
  ASSERT_EQ(status.state, JobState::kRunning);
  EXPECT_TRUE(status.degraded);
  EXPECT_LE(status.tasks, 4);  // survivors expose 4 slots
  EXPECT_GE(status.recoveries, 1);
  // Nothing may live on the dead worker.
  SlotReservation reservation = service.view().ReservationOf(id);
  EXPECT_EQ(reservation[1], 0);
  EXPECT_EQ(service.view().CheckInvariants(), "");
  SchedulerStats stats = service.stats();
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_GE(stats.downscales, 1u);
}

TEST(PlacementServiceTest, DegradedRecoveryMatchesPlanRecovery) {
  // The same crash of the same DS2-sized query shrinks it to the same parallelism in the
  // batch recovery planner and in the service: one fit rule for both.
  Cluster cluster(6, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  q.ScaleRates(3.0);
  DeployOptions deploy;
  deploy.policy = PlacementPolicy::kFlinkEvenly;  // the sizing is what matters here
  deploy.use_ds2_sizing = true;
  Deployment d = CapsysController(cluster, deploy).Deploy(q);
  std::vector<bool> usable = {true, true, false, false, false, false};
  RecoveryPlan plan = PlanRecovery(d.graph, d.source_rates, d.costs, cluster, usable, deploy);
  ASSERT_EQ(plan.outcome, RecoveryOutcome::kRecoveredDegraded);
  ASSERT_GT(plan.graph.total_parallelism(), d.graph.num_operators());  // not simply the floor

  PlacementService service(cluster);
  JobSpec spec;
  spec.name = "q1";
  spec.graph = d.graph;
  spec.source_rates = d.source_rates;
  spec.allow_degraded_recovery = true;
  JobId id = service.Submit(std::move(spec));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(id).state, JobState::kRunning);
  for (WorkerId w = 2; w < 6; ++w) {
    service.OnWorkerDead(w);
    ASSERT_TRUE(service.WaitIdle(20.0));
  }
  JobStatus status = service.Status(id);
  ASSERT_EQ(status.state, JobState::kRunning);
  EXPECT_TRUE(status.degraded);
  EXPECT_EQ(status.parallelism, plan.graph.Parallelism());
}

TEST(PlacementServiceTest, RecoveryQueuesWhenDegradationDisallowed) {
  Cluster cluster(2, WorkerSpec{.slots = 4});
  PlacementService service(cluster);
  JobSpec spec = MakePipelineJob("rigid", 5, 1e3);  // 7 tasks
  spec.allow_degraded_recovery = false;
  JobId id = service.Submit(std::move(spec));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(id).state, JobState::kRunning);
  service.OnWorkerDead(0);
  ASSERT_TRUE(service.WaitIdle(20.0));
  // Cannot fit 7 tasks on 4 surviving slots and may not degrade: queued, not aborted.
  EXPECT_EQ(service.Status(id).state, JobState::kQueued);
  // The worker coming back re-admits and replans the job at full parallelism.
  service.OnWorkerRestored(0);
  ASSERT_TRUE(service.WaitIdle(20.0));
  JobStatus status = service.Status(id);
  EXPECT_EQ(status.state, JobState::kRunning);
  EXPECT_FALSE(status.degraded);
  EXPECT_EQ(status.tasks, 7);
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

TEST(PlacementServiceTest, RescaleRecommitsAtNewParallelism) {
  Cluster cluster(4, WorkerSpec{.slots = 4});
  PlacementService service(cluster);
  JobId id = service.Submit(MakePipelineJob("rescale", 2, 1e4));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(id).state, JobState::kRunning);
  service.Rescale(id, {1, 6, 1});
  ASSERT_TRUE(service.WaitIdle(20.0));
  JobStatus status = service.Status(id);
  EXPECT_EQ(status.state, JobState::kRunning);
  EXPECT_EQ(status.tasks, 8);
  ASSERT_EQ(status.parallelism.size(), 3u);
  EXPECT_EQ(status.parallelism[1], 6);
  EXPECT_EQ(SumReservation(service.view().ReservationOf(id)), 8);
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

TEST(PlacementServiceTest, PlanCacheHitOnResubmitAndRateScale) {
  Cluster cluster(4, WorkerSpec{.slots = 4});
  PlacementService service(cluster);
  JobId first = service.Submit(MakePipelineJob("cacheable", 4, 1e4));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(first).state, JobState::kRunning);
  EXPECT_FALSE(service.Status(first).plan_from_cache);
  service.Cancel(first);
  ASSERT_TRUE(service.WaitIdle(20.0));
  // Identical job on the restored capacity: same (fingerprint, signature, bottleneck) key.
  JobId second = service.Submit(MakePipelineJob("cacheable", 4, 1e4));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(second).state, JobState::kRunning);
  EXPECT_TRUE(service.Status(second).plan_from_cache);
  service.Cancel(second);
  ASSERT_TRUE(service.WaitIdle(20.0));
  // Uniformly doubled rates keep the key (cost vectors are scale-invariant): still a hit.
  JobId third = service.Submit(MakePipelineJob("cacheable", 4, 2e4));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(third).state, JobState::kRunning);
  EXPECT_TRUE(service.Status(third).plan_from_cache);
  SchedulerStats stats = service.stats();
  EXPECT_GE(stats.plans_from_cache, 2u);
  EXPECT_GE(stats.cache_hits, 2u);
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

TEST(PlacementServiceTest, NexmarkQueryThroughService) {
  // One of the paper's evaluation queries end-to-end through the online service on the
  // 4x4 motivation cluster.
  Cluster cluster(4, WorkerSpec::R5dXlarge());
  PlacementService service(cluster);
  QuerySpec q1 = BuildQ1Sliding();
  JobSpec spec;
  spec.name = "q1-sliding";
  spec.graph = q1.graph;
  spec.source_rates = q1.source_rates;
  JobId id = service.Submit(std::move(spec));
  ASSERT_TRUE(service.WaitIdle(30.0));
  JobStatus status = service.Status(id);
  ASSERT_EQ(status.state, JobState::kRunning);
  PhysicalGraph physical = PhysicalGraph::Expand(q1.graph);
  EXPECT_EQ(status.placement.Validate(physical, cluster), "");
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

TEST(PlacementServiceTest, CrashStormInterleavedWithSubmissions) {
  const int kThreads = 3;
  const int kJobsPerThread = 4;
  Cluster cluster(8, WorkerSpec{.slots = 4});
  PlacementService service(cluster, WithPlanners(4));
  std::vector<std::vector<JobId>> ids(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &ids, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        ids[static_cast<size_t>(t)].push_back(
            service.Submit(MakePipelineJob("storm", 2, 2e3)));
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    });
  }
  // Crash storm racing the submissions: repeatedly kill and restore two workers.
  for (int round = 0; round < 4; ++round) {
    service.OnWorkerDead(round % 4);
    service.OnWorkerDead(4 + round % 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    service.OnWorkerRestored(round % 4);
    service.OnWorkerRestored(4 + round % 4);
  }
  for (auto& t : submitters) {
    t.join();
  }
  ASSERT_TRUE(service.WaitIdle(60.0));
  EXPECT_EQ(service.view().CheckInvariants(), "");
  // Zero lost jobs: every submission is tracked and reached a coherent state.
  std::vector<JobStatus> statuses = service.AllStatuses();
  EXPECT_EQ(statuses.size(), static_cast<size_t>(kThreads * kJobsPerThread));
  // 12 jobs x 4 tasks = 48 > 32 slots: some queue, the rest must be Running with a
  // committed reservation matching their task count, summing within worker slot limits.
  std::vector<int> per_worker(8, 0);
  for (const JobStatus& s : statuses) {
    ASSERT_TRUE(s.state == JobState::kRunning || s.state == JobState::kQueued)
        << s.ToString();
    if (s.state == JobState::kRunning) {
      SlotReservation r = service.view().ReservationOf(s.id);
      EXPECT_EQ(SumReservation(r), s.tasks) << s.ToString();
      for (size_t w = 0; w < r.size(); ++w) {
        per_worker[w] += r[w];
      }
    }
  }
  for (size_t w = 0; w < per_worker.size(); ++w) {
    EXPECT_LE(per_worker[w], 4) << "worker " << w << " double-booked";
  }
}

// Worker ids outside the cluster name nothing to kill or restore: the events are ignored
// instead of indexing past the view's per-worker vectors.
TEST(PlacementServiceTest, OutOfRangeWorkerIdsAreIgnored) {
  Cluster cluster(4, WorkerSpec{.slots = 4});
  PlacementService service(cluster);
  JobId running = service.Submit(MakePipelineJob("resident", 2, 1e3));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(running).state, JobState::kRunning);
  for (WorkerId w : {WorkerId{-1}, WorkerId{4}}) {
    service.OnWorkerDead(w);
    service.OnWorkerRestored(w);
  }
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_EQ(service.view().TotalSlots(), 16);
  EXPECT_EQ(service.view().CheckInvariants(), "");
  EXPECT_EQ(service.Status(running).state, JobState::kRunning);
  EXPECT_EQ(service.Status(running).recoveries, 0);
  JobId later = service.Submit(MakePipelineJob("later", 2, 1e3));
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_EQ(service.Status(later).state, JobState::kRunning);
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

// A rescale the cluster could never host would release the job's slots and queue it
// forever; the service ignores it and the job keeps running on its plan.
TEST(PlacementServiceTest, RescaleBeyondClusterIsIgnored) {
  PlacementService service(Cluster(4, WorkerSpec{.slots = 4}));
  JobId id = service.Submit(MakePipelineJob("rescale", 2, 1e4));
  ASSERT_TRUE(service.WaitIdle(20.0));
  ASSERT_EQ(service.Status(id).state, JobState::kRunning);
  service.Rescale(id, {1, 40, 1});  // 42 tasks on 16 slots
  ASSERT_TRUE(service.WaitIdle(20.0));
  JobStatus status = service.Status(id);
  EXPECT_EQ(status.state, JobState::kRunning);
  EXPECT_EQ(status.parallelism, (std::vector<int>{1, 2, 1}));
  EXPECT_EQ(SumReservation(service.view().ReservationOf(id)), 4);
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

// A cancel that lands while the job's plan is pending or out frees its slots and its
// admitted demand: a job that needs the whole cluster is admitted afterwards.
TEST(PlacementServiceTest, CancelWhilePlanningReleasesEverything) {
  Cluster cluster(2, WorkerSpec{.slots = 4});
  PlacementService service(cluster);
  // 8 tasks and 7e5 records/s: every slot and more than half of the cluster's CPU.
  JobId cancelled = service.Submit(MakePipelineJob("cancelled", 6, 7e5));
  service.Cancel(cancelled);
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_EQ(service.Status(cancelled).state, JobState::kTerminated);
  EXPECT_TRUE(service.view().ReservationOf(cancelled).empty());
  EXPECT_EQ(service.view().CheckInvariants(), "");
  JobId whole = service.Submit(MakePipelineJob("whole", 6, 7e5));
  ASSERT_TRUE(service.WaitIdle(20.0));
  JobStatus status = service.Status(whole);
  ASSERT_GT(status.demand.cpu, 0.5 * service.view().TotalCapacity().cpu);
  EXPECT_EQ(status.state, JobState::kRunning) << status.ToString();
  EXPECT_EQ(SumReservation(service.view().ReservationOf(whole)), 8);
  EXPECT_EQ(service.view().CheckInvariants(), "");
}

// Workers die, and stay dead, while plans are being made and committed. A plan that used
// a worker that died before its commit conflicts and is replanned, so no running job is
// left with slots or tasks on a dead worker.
TEST(PlacementServiceTest, DeadWorkersDuringSubmissionsHostNothing) {
  const int kThreads = 3;
  const int kJobsPerThread = 4;
  const std::vector<WorkerId> kDead = {0, 3, 5};
  Cluster cluster(8, WorkerSpec{.slots = 4});
  PlacementService service(cluster, WithPlanners(4));
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        service.Submit(MakePipelineJob("doomed", 2, 2e3));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (WorkerId w : kDead) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    service.OnWorkerDead(w);
  }
  for (auto& t : submitters) {
    t.join();
  }
  ASSERT_TRUE(service.WaitIdle(60.0));
  EXPECT_EQ(service.view().CheckInvariants(), "");
  std::vector<JobStatus> statuses = service.AllStatuses();
  EXPECT_EQ(statuses.size(), static_cast<size_t>(kThreads * kJobsPerThread));
  int running = 0;
  for (const JobStatus& s : statuses) {
    ASSERT_TRUE(s.state == JobState::kRunning || s.state == JobState::kQueued)
        << s.ToString();
    if (s.state != JobState::kRunning) {
      continue;
    }
    ++running;
    SlotReservation r = service.view().ReservationOf(s.id);
    EXPECT_EQ(SumReservation(r), s.tasks) << s.ToString();
    for (WorkerId w : kDead) {
      EXPECT_EQ(r[static_cast<size_t>(w)], 0) << s.ToString();
      for (TaskId t = 0; t < s.placement.num_tasks(); ++t) {
        EXPECT_NE(s.placement.WorkerOf(t), w) << s.ToString();
      }
    }
  }
  EXPECT_GT(running, 0);
}

TEST(PlacementServiceTest, StatsAndStatusRenderings) {
  PlacementService service(Cluster(2, WorkerSpec{.slots = 4}));
  JobId id = service.Submit(MakePipelineJob("render", 2, 1e3));
  ASSERT_TRUE(service.WaitIdle(20.0));
  EXPECT_NE(service.Status(id).ToString().find("running"), std::string::npos);
  EXPECT_NE(service.stats().ToString().find("submitted=1"), std::string::npos);
  EXPECT_STREQ(JobStateName(JobState::kRecovering), "recovering");
  EXPECT_STREQ(AdmissionOutcomeName(AdmissionOutcome::kQueuedCapacity), "queued_capacity");
  EXPECT_STREQ(CommitResultName(CommitResult::kCommittedStale), "committed_stale");
}

}  // namespace
}  // namespace capsys
