// service_mix: an open loop of independent tenants against one PlacementService with
// default SchedulerOptions. Jobs arrive as seeded Poisson traffic; each is one of the six
// NEXMark queries, either a fresh shape (parallelism drawn per operator, so the job pays
// for auto-tune and search) or a resubmission of the query's fixed tenant shape (eligible
// for the plan cache). Each job is cancelled after a seeded hold time once it runs, and a
// seeded crash/restore cycle of several workers at once forces recovery replans and
// down-scaling. The benchmark's own thread is the only load generator; the service adds
// its dispatcher and planner threads.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <queue>
#include <thread>
#include <utility>

#include "perfbench/src/bench.h"
#include "perfbench/src/rollup.h"
#include "src/common/rng.h"
#include "src/nexmark/queries.h"
#include "src/obs/trace.h"
#include "src/scheduler/placement_service.h"
#include "src/simulator/fluid_simulator.h"

namespace perfbench {
namespace {

using capsys::JobId;
using capsys::JobState;
using capsys::JobStatus;
using capsys::PlacementService;
using capsys::QuerySpec;
using capsys::WorkerId;

// Offered load: the two default planners are about half busy on the reference machine.
// Plan times span three orders of magnitude and queueing behind a slow plan grows sharply
// with load, so a busier service makes the latency of a window depend on its seed.
constexpr double kArrivalsPerS = 8.0;
constexpr double kHoldMinS = 0.1;
constexpr double kHoldMaxS = 0.3;
constexpr int kWorkers = 6;
constexpr int kSlotsPerWorker = 16;
// One crash takes half the cluster down at once: the survivors cannot host every affected
// job at full width, so recovery replans can down-scale.
constexpr int kCrashWorkers = 3;
constexpr double kCrashEveryS = 12.0;
constexpr double kDownS = 0.5;
constexpr int kThroughputSnapshots = 10;
// A run whose generator falls further behind its schedule than this is invalid.
constexpr double kMaxLagP95Ms = 50.0;
constexpr double kIdleTimeoutS = 60.0;
constexpr double kDrainTimeoutS = 30.0;

struct Arrival {
  double due_s = 0.0;
  double hold_s = 0.0;
  int query = 0;
  std::vector<int> parallelism;  // empty: the query's fixed tenant shape
};

struct CrashCycle {
  double at_s = 0.0;
  std::vector<WorkerId> workers;
};

struct Inputs {
  std::vector<Arrival> arrivals;
  std::vector<CrashCycle> crashes;
};

// Every parallelism vector within one of the query's default per operator (sinks stay at
// 1), except the default itself, in a fixed order. Fresh jobs take these in turn: each has
// a fingerprint no earlier job of the window had, and the set of fresh shapes a window
// plans does not depend on the seed. Plan time varies far more between shapes than between
// runs of one shape, so drawing the shapes from the seed would make runs incomparable.
std::vector<std::vector<int>> FreshShapes(const QuerySpec& query, uint64_t salt) {
  std::vector<std::vector<int>> shapes = {{}};
  for (const auto& op : query.graph.operators()) {
    int lo = op.kind == capsys::OperatorKind::kSink ? op.parallelism
                                                    : std::max(1, op.parallelism - 1);
    int hi = op.kind == capsys::OperatorKind::kSink ? op.parallelism : op.parallelism + 1;
    std::vector<std::vector<int>> next;
    for (const auto& prefix : shapes) {
      for (int p = lo; p <= hi; ++p) {
        next.push_back(prefix);
        next.back().push_back(p);
      }
    }
    shapes = std::move(next);
  }
  std::vector<int> current;
  for (const auto& op : query.graph.operators()) {
    current.push_back(op.parallelism);
  }
  shapes.erase(std::remove(shapes.begin(), shapes.end(), current), shapes.end());
  capsys::Rng order(salt);
  order.Shuffle(shapes);
  return shapes;
}

// Arrivals are a seeded Poisson process conditioned on its count (kArrivalsPerS x seconds
// arrivals at uniform random times), and the job mix is balanced in blocks: each block
// holds every query once as a fresh shape and once as its tenant shape, in a seeded order.
// Both keep the offered work of a window independent of the seed, so runs with different
// seeds are comparable. Crashes come at a fixed period from a seeded offset and take down
// a seeded set of workers.
Inputs Generate(uint64_t seed, double seconds, const std::vector<QuerySpec>& queries) {
  capsys::Rng rng(seed);
  Inputs in;
  std::vector<double> due(static_cast<size_t>(kArrivalsPerS * seconds));
  for (double& t : due) {
    t = rng.Uniform(0.0, seconds);
  }
  std::sort(due.begin(), due.end());
  std::vector<std::vector<std::vector<int>>> fresh_shapes;
  for (size_t q = 0; q < queries.size(); ++q) {
    fresh_shapes.push_back(FreshShapes(queries[q], q + 1));
  }
  std::vector<size_t> fresh_used(queries.size(), 0);
  std::vector<std::pair<int, bool>> block;  // (query, fresh)
  for (double t : due) {
    if (block.empty()) {
      for (int q = 0; q < static_cast<int>(queries.size()); ++q) {
        block.emplace_back(q, true);
        block.emplace_back(q, false);
      }
      rng.Shuffle(block);
    }
    auto [query, fresh] = block.back();
    block.pop_back();
    Arrival a;
    a.due_s = t;
    a.hold_s = rng.Uniform(kHoldMinS, kHoldMaxS);
    a.query = query;
    if (fresh) {
      const auto& shapes = fresh_shapes[static_cast<size_t>(query)];
      a.parallelism = shapes[fresh_used[static_cast<size_t>(query)]++ % shapes.size()];
    }
    in.arrivals.push_back(std::move(a));
  }
  std::vector<WorkerId> all(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    all[static_cast<size_t>(w)] = w;
  }
  for (double t = rng.Uniform(0.2, 0.5) * kCrashEveryS; t + kDownS + 1.0 < seconds;
       t += kCrashEveryS) {
    CrashCycle c;
    c.at_s = t;
    rng.Shuffle(all);
    c.workers.assign(all.begin(), all.begin() + kCrashWorkers);
    in.crashes.push_back(std::move(c));
  }
  return in;
}

capsys::JobSpec SpecOf(const QuerySpec& query, const std::vector<int>& parallelism) {
  capsys::JobSpec spec;
  spec.name = query.graph.name();
  spec.graph = query.graph;
  if (!parallelism.empty()) {
    spec.graph.SetParallelism(parallelism);
  }
  spec.source_rates = query.source_rates;
  return spec;
}

capsys::Cluster ServiceCluster() {
  return capsys::Cluster(kWorkers, capsys::WorkerSpec::C5d4xlarge(kSlotsPerWorker));
}

bool Settled(JobState s) {
  return s == JobState::kRunning || s == JobState::kQueued || s == JobState::kTerminated ||
         s == JobState::kRejected;
}

// A quiesce point: waits for the service to settle and checks the slot accounting.
void Quiesce(PlacementService& service, const char* where, Report* report) {
  if (!service.WaitIdle(kIdleTimeoutS)) {
    report->Violation(std::string("service did not quiesce ") + where);
  }
  std::string err = service.view().CheckInvariants();
  if (!err.empty()) {
    report->Violation(std::string("ClusterView invariants ") + where + ": " + err);
  }
}

// Constructs the service and plans each fixed tenant shape once, so thread start-up and
// first-use costs are paid before the timed window.
std::unique_ptr<PlacementService> SetUp(const std::vector<QuerySpec>& queries,
                                        Report* report) {
  auto service = std::make_unique<PlacementService>(ServiceCluster());
  std::vector<JobId> ids;
  for (const auto& q : queries) {
    ids.push_back(service->Submit(SpecOf(q, {})));
  }
  Quiesce(*service, "after warm-up", report);
  for (JobId id : ids) {
    service->Cancel(id);
  }
  Quiesce(*service, "after warm-up cancel", report);
  return service;
}

// The tenants running at one instant: (query index, status with the committed placement).
using TenantSnapshot = std::vector<std::pair<int, JobStatus>>;

// Share of the target input rate the snapshot's tenants sustain together on the shared
// cluster, from the fluid simulator.
double SimulateSnapshot(const TenantSnapshot& snap, const std::vector<QuerySpec>& queries) {
  capsys::LogicalGraph merged("tenants");
  std::map<capsys::OperatorId, double> rates;
  std::vector<WorkerId> assignment;
  double target = 0.0;
  for (const auto& [query, status] : snap) {
    capsys::LogicalGraph g = queries[static_cast<size_t>(query)].graph;
    g.SetParallelism(status.parallelism);
    capsys::OperatorId offset = merged.Merge(g);
    for (const auto& [op, r] : queries[static_cast<size_t>(query)].source_rates) {
      rates[op + offset] = r;
      target += r;
    }
    for (capsys::TaskId t = 0; t < status.placement.num_tasks(); ++t) {
      assignment.push_back(status.placement.WorkerOf(t));
    }
  }
  if (target <= 0.0) {
    return 1.0;
  }
  capsys::PhysicalGraph physical = capsys::PhysicalGraph::Expand(merged);
  capsys::FluidSimulator sim(physical, ServiceCluster(), capsys::Placement(assignment));
  for (const auto& [op, r] : rates) {
    sim.SetSourceRate(op, r);
  }
  return sim.RunMeasured(/*warmup_s=*/20.0, /*measure_s=*/40.0).throughput / target;
}

struct Window {
  double seconds = 0.0;
  uint64_t submitted = 0;
  uint64_t failed = 0;           // rejected, or never ran before the service settled
  uint64_t ran_in_window = 0;    // reached Running before the window closed
  std::vector<double> decision_ms;    // scheduled send time -> Running
  std::vector<double> queue_wait_ms;  // decision latency minus planner time
  std::vector<double> planning_ms;    // planner time of each job that ran
  std::vector<double> lag_ms;         // actual send time - scheduled send time
  std::vector<double> recovery_ms;    // OnWorkerDead -> every affected job Running again
  uint64_t unrecovered = 0;
  std::vector<double> plan_cost;      // max-dimension cost of each committed plan
  double planning_s = 0.0;            // summed planner time of all jobs
  double plan_attempts = 0.0;
  double commit_conflicts = 0.0;
  uint64_t planned_jobs = 0;
  capsys::SchedulerStats stats;       // delta over the window
  std::vector<TenantSnapshot> snapshots;
};

struct Recovery {
  std::chrono::steady_clock::time_point dead_at;
  std::vector<std::pair<JobId, int>> affected;  // (job, recoveries before the crash)
  bool done = false;
};

capsys::SchedulerStats Delta(const capsys::SchedulerStats& a, const capsys::SchedulerStats& b) {
  capsys::SchedulerStats d;
  d.submitted = a.submitted - b.submitted;
  d.admitted = a.admitted - b.admitted;
  d.queued = a.queued - b.queued;
  d.rejected = a.rejected - b.rejected;
  d.plans_committed = a.plans_committed - b.plans_committed;
  d.commit_conflicts = a.commit_conflicts - b.commit_conflicts;
  d.stale_commits = a.stale_commits - b.stale_commits;
  d.recoveries = a.recoveries - b.recoveries;
  d.downscales = a.downscales - b.downscales;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  return d;
}

// Drives one timed window of the open loop. Arrivals and crashes stop at `seconds`; the
// jobs still held are then cancelled on schedule and the service is left to settle, so
// every job's decision is accounted for.
Window RunWindow(PlacementService& service, const std::vector<QuerySpec>& queries,
                 const Inputs& in, double seconds, Report* report) {
  using Clock = std::chrono::steady_clock;
  Window win;
  win.seconds = seconds;
  capsys::SchedulerStats before = service.stats();
  std::vector<std::pair<JobId, size_t>> submitted;  // (job, arrival index)
  std::vector<double> sent_at_s;
  using Cancel = std::pair<double, JobId>;
  std::priority_queue<Cancel, std::vector<Cancel>, std::greater<Cancel>> cancels;
  std::vector<Recovery> recoveries;
  size_t next_arrival = 0;
  size_t next_crash = 0;
  bool down = false;
  double restore_at = 0.0;
  int next_snapshot = 1;
  const double snapshot_every = seconds / (kThroughputSnapshots + 1);

  const Clock::time_point start = Clock::now();
  auto recovering = [&recoveries](JobId job) {
    for (const Recovery& r : recoveries) {
      if (r.done) {
        continue;
      }
      for (const auto& [id, n] : r.affected) {
        if (id == job) {
          return true;
        }
      }
    }
    return false;
  };
  while (true) {
    double now = SecondsSince(start);
    while (next_arrival < in.arrivals.size() && in.arrivals[next_arrival].due_s <= now &&
           in.arrivals[next_arrival].due_s < seconds) {
      const Arrival& a = in.arrivals[next_arrival];
      JobId id = service.Submit(SpecOf(queries[static_cast<size_t>(a.query)], a.parallelism));
      double sent = SecondsSince(start);
      submitted.emplace_back(id, next_arrival);
      sent_at_s.push_back(sent);
      win.lag_ms.push_back((sent - a.due_s) * 1e3);
      cancels.emplace(a.due_s + a.hold_s, id);
      ++next_arrival;
    }
    while (!cancels.empty() && cancels.top().first <= now) {
      auto [at, id] = cancels.top();
      cancels.pop();
      JobState state = service.Status(id).state;
      if (state == JobState::kTerminated || state == JobState::kRejected) {
        continue;
      }
      // Only a running job is cancelled: one still waiting for its decision, or in a
      // recovery the benchmark is timing, is retried shortly after.
      if (state != JobState::kRunning || recovering(id)) {
        cancels.emplace(now + 0.05, id);
        continue;
      }
      service.Cancel(id);
    }
    if (!down && next_crash < in.crashes.size() && in.crashes[next_crash].at_s <= now) {
      const CrashCycle& c = in.crashes[next_crash];
      Recovery r;
      for (const JobStatus& s : service.AllStatuses()) {
        if (s.state != JobState::kRunning) {
          continue;
        }
        for (capsys::TaskId t = 0; t < s.placement.num_tasks(); ++t) {
          if (std::find(c.workers.begin(), c.workers.end(), s.placement.WorkerOf(t)) !=
              c.workers.end()) {
            r.affected.emplace_back(s.id, s.recoveries);
            break;
          }
        }
      }
      r.dead_at = Clock::now();
      for (WorkerId w : c.workers) {
        service.OnWorkerDead(w);
      }
      recoveries.push_back(std::move(r));
      down = true;
      restore_at = now + kDownS;
    }
    if (down && restore_at <= now) {
      for (WorkerId w : in.crashes[next_crash].workers) {
        service.OnWorkerRestored(w);
      }
      down = false;
      ++next_crash;
    }
    for (Recovery& r : recoveries) {
      if (r.done) {
        continue;
      }
      bool all = true;
      for (const auto& [id, n] : r.affected) {
        JobStatus s = service.Status(id);
        bool back = s.state == JobState::kTerminated ||
                    (s.state == JobState::kRunning && s.recoveries > n);
        all = all && back;
      }
      if (all) {
        r.done = true;
        win.recovery_ms.push_back(SecondsSince(r.dead_at) * 1e3);
      }
    }
    if (next_snapshot <= kThroughputSnapshots && now >= snapshot_every * next_snapshot) {
      TenantSnapshot snap;
      std::map<JobId, int> query_of;
      for (const auto& [id, idx] : submitted) {
        query_of[id] = in.arrivals[idx].query;
      }
      for (JobStatus& s : service.AllStatuses()) {
        auto it = query_of.find(s.id);
        if (s.state == JobState::kRunning && it != query_of.end()) {
          snap.emplace_back(it->second, std::move(s));
        }
      }
      win.snapshots.push_back(std::move(snap));
      ++next_snapshot;
    }
    // After the window, running jobs are still cancelled on schedule, so that jobs queued
    // for capacity get their turn; the drain ends once every job has been cancelled.
    if (now >= seconds && !down && (cancels.empty() || now >= seconds + kDrainTimeoutS)) {
      break;
    }
    // Sleep until the next scheduled event; poll every millisecond while a recovery is
    // being timed.
    double next = now < seconds ? seconds : now + 0.05;
    if (next_arrival < in.arrivals.size()) {
      next = std::min(next, in.arrivals[next_arrival].due_s);
    }
    if (!cancels.empty()) {
      next = std::min(next, cancels.top().first);
    }
    if (down) {
      next = std::min(next, restore_at);
    } else if (next_crash < in.crashes.size()) {
      next = std::min(next, in.crashes[next_crash].at_s);
    }
    if (next_snapshot <= kThroughputSnapshots) {
      next = std::min(next, snapshot_every * next_snapshot);
    }
    bool timing_recovery = std::any_of(recoveries.begin(), recoveries.end(),
                                       [](const Recovery& r) { return !r.done; });
    if (timing_recovery) {
      next = std::min(next, SecondsSince(start) + 0.001);
    }
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(next)));
  }

  Quiesce(service, "after the window", report);
  for (const Recovery& r : recoveries) {
    win.unrecovered += r.done ? 0 : 1;
  }
  for (size_t i = 0; i < submitted.size(); ++i) {
    JobStatus s = service.Status(submitted[i].first);
    const Arrival& a = in.arrivals[submitted[i].second];
    ++win.submitted;
    if (!Settled(s.state)) {
      report->Violation("job " + std::to_string(s.id) + " did not settle: " +
                        capsys::JobStateName(s.state));
    }
    win.planning_s += s.planning_time_s;
    if (s.plan_attempts > 0) {
      ++win.planned_jobs;
      win.plan_attempts += s.plan_attempts;
      win.commit_conflicts += s.commit_conflicts;
    }
    if (s.running_time_s < 0.0) {
      ++win.failed;
      continue;
    }
    double decision_s = (sent_at_s[i] - a.due_s) + s.decision_latency_s;
    win.decision_ms.push_back(decision_s * 1e3);
    win.queue_wait_ms.push_back((s.decision_latency_s - s.planning_time_s) * 1e3);
    win.planning_ms.push_back(s.planning_time_s * 1e3);
    win.plan_cost.push_back(std::max({s.plan_cost.cpu, s.plan_cost.io, s.plan_cost.net}));
    if (sent_at_s[i] + s.decision_latency_s <= seconds) {
      ++win.ran_in_window;
    }
  }
  win.stats = Delta(service.stats(), before);
  for (const auto& [id, idx] : submitted) {
    service.Cancel(id);
  }
  Quiesce(service, "after cancelling every job", report);
  for (const auto& [id, idx] : submitted) {
    JobState s = service.Status(id).state;
    if (s != JobState::kTerminated && s != JobState::kRejected) {
      report->Violation("job " + std::to_string(id) + " still " + capsys::JobStateName(s) +
                        " after cancel");
    }
  }
  if (service.view().TotalFreeSlots() != service.view().TotalSlots()) {
    report->Violation("slots still reserved after every job was cancelled");
  }
  double lag_p95 = Percentile(win.lag_ms, 95.0);
  if (lag_p95 > kMaxLagP95Ms) {
    report->Violation("generator fell behind its schedule: lag p95 " +
                      std::to_string(lag_p95) + " ms");
  }
  return win;
}

void PrintWindow(const Window& w) {
  std::printf("service_mix: %llu jobs submitted, %llu ran in the %.0f s window, %llu failed\n",
              static_cast<unsigned long long>(w.submitted),
              static_cast<unsigned long long>(w.ran_in_window), w.seconds,
              static_cast<unsigned long long>(w.failed));
  std::printf("  decision_mean_ms=%.3f decision_p50_ms=%.3f decision_p95_ms=%.3f (n=%zu)\n",
              Mean(w.decision_ms), Percentile(w.decision_ms, 50), Percentile(w.decision_ms, 95),
              w.decision_ms.size());
  std::printf("  planning_p50_ms=%.3f planning_p95_ms=%.3f "
              "planning_tail5_mean_ms=%.3f (n=%zu)\n",
              Percentile(w.planning_ms, 50), Percentile(w.planning_ms, 95),
              TailMean(w.planning_ms, 0.05), w.planning_ms.size());
  std::printf("  recovery_p50_ms=%.3f (n=%zu, unrecovered=%llu) generator_lag_p95_ms=%.3f\n",
              Percentile(w.recovery_ms, 50), w.recovery_ms.size(),
              static_cast<unsigned long long>(w.unrecovered), Percentile(w.lag_ms, 95));
  std::printf("  plan_cost_mean=%.4f planner_time_s=%.3f\n", Mean(w.plan_cost), w.planning_s);
  std::printf("  stats: %s\n", w.stats.ToString().c_str());
}

}  // namespace

void RunServiceMix(const RunConfig& config, Report* report) {
  const std::vector<QuerySpec> queries = capsys::BuildAllQueries();
  const capsys::SchedulerOptions defaults;
  const double window_s = config.trace ? config.seconds / 2.0 : config.seconds;

  // Set-up is repeated and its median reported, so that work moved into set-up shows.
  std::vector<double> setup_s;
  std::vector<double> setup_probe_ms;
  std::unique_ptr<PlacementService> service;
  Inputs inputs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    auto t0 = std::chrono::steady_clock::now();
    inputs = Generate(config.seed, window_s, queries);
    service = SetUp(queries, report);
    setup_s.push_back(SecondsSince(t0));
    setup_probe_ms.push_back(SpeedProbeMs());
  }

  Window base = RunWindow(*service, queries, inputs, window_s, report);
  PrintWindow(base);
  report->attempted += base.submitted;
  report->failed += base.failed;
  if (!config.trace) {
    std::vector<double> ratios;
    for (const TenantSnapshot& snap : base.snapshots) {
      ratios.push_back(SimulateSnapshot(snap, queries));
    }
    // The tail of the service's own decision time: the mean planner time of the slowest 5%
    // of jobs. Queue wait is left out: it depends on how busy the host's cores are, and the
    // traced run reports it.
    report->Add("latency_ms", TailMean(base.planning_ms, 0.05), "ms");
    report->Add("ops_per_s", base.ran_in_window / window_s, "1/s");
    report->Add("throughput_ratio", Mean(ratios), "ratio");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("setup_s", Percentile(setup_s, 50.0) * SpeedScale(setup_probe_ms), "s");
    return;
  }

  // Traced window: same inputs on a freshly set-up service, with the tracer on.
  service.reset();
  service = SetUp(queries, report);
  capsys::Tracer::Global().Reset();
  capsys::Tracer::Global().Enable();
  Window traced = RunWindow(*service, queries, inputs, window_s, report);
  capsys::Tracer::Global().Disable();
  Rollup rollup(capsys::Tracer::Global().Snapshot());
  capsys::Tracer::Global().Reset();
  PrintWindow(traced);
  std::printf("%s", rollup.ToString().c_str());
  report->attempted += traced.submitted;
  report->failed += traced.failed;

  const SpanStats& plan = rollup.Get("scheduler.plan");
  const capsys::SchedulerStats& st = traced.stats;
  double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
  AddCapsMetrics(rollup, defaults.autotune.probe_timeout_s, plan.total_ms, report);
  report->Add("decision_p50_ms", Percentile(traced.decision_ms, 50.0), "ms");
  report->Add("decision_p95_ms", Percentile(traced.decision_ms, 95.0), "ms");
  report->Add("scheduler.queue_wait_p50_ms", Percentile(traced.queue_wait_ms, 50.0), "ms");
  report->Add("scheduler.planner_busy_share",
              Share(traced.planning_s, defaults.planner_threads * window_s), "ratio");
  report->Add("scheduler.plan_p50_ms", Percentile(plan.durations_ms, 50.0), "ms");
  report->Add("scheduler.plan_attempts_per_job",
              Share(traced.plan_attempts, traced.planned_jobs), "count");
  report->Add("scheduler.commit_conflicts_per_job",
              Share(traced.commit_conflicts, traced.planned_jobs), "count");
  report->Add("scheduler.stale_commit_share",
              Share(st.stale_commits, st.plans_committed), "ratio");
  report->Add("scheduler.cache_hit_ratio", Share(st.cache_hits, lookups), "ratio");
  report->Add("scheduler.queued_share", Share(st.queued, st.submitted), "ratio");
  report->Add("scheduler.rejected_share", Share(st.rejected, st.submitted), "ratio");
  report->Add("scheduler.downscales", static_cast<double>(st.downscales), "count");
  report->Add("recovery_p50_ms", Percentile(traced.recovery_ms, 50.0), "ms");
  report->Add("plan_cost_mean", Mean(traced.plan_cost), "ratio");
  report->Add("generator_lag_p95_ms", Percentile(traced.lag_ms, 95.0), "ms");
  report->Add("host.speed_probe_ms", Percentile(setup_probe_ms, 50.0), "ms");
  // Planner time per plan, traced against untraced, on identical arrivals.
  report->Add("obs.tracing_overhead_pct",
              OverheadPct(Share(traced.planning_s, traced.planned_jobs),
                          Share(base.planning_s, base.planned_jobs)),
              "%");
}

}  // namespace perfbench
