#include "src/scheduler/placement_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "src/caps/plan.h"
#include "src/caps/search.h"
#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/dataflow/rates.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace capsys {

namespace {

constexpr size_t kPlanCacheCapacity = 512;

struct JobDemand {
  ResourceVector demand;
  int tasks = 0;
};

// Aggregate demand of `graph` at its declared profiles and target rates, from the cost
// model's task demands (Table 1 of the paper): cpu-seconds/s, io bytes/s, net bytes/s.
JobDemand EstimateDemand(const LogicalGraph& graph,
                         const std::map<OperatorId, double>& source_rates) {
  PhysicalGraph physical = PhysicalGraph::Expand(graph);
  JobDemand out;
  for (const auto& d : TaskDemands(physical, PropagateRates(graph, source_rates))) {
    out.demand += d;
  }
  out.tasks = physical.num_tasks();
  return out;
}

// Why `source_rates` is not a valid input for `graph`, or "" when it is: every rate is
// finite, non-negative and keyed on a source operator of the graph.
std::string SourceRatesError(const LogicalGraph& graph,
                             const std::map<OperatorId, double>& source_rates) {
  for (const auto& [op, rate] : source_rates) {
    if (op < 0 || op >= graph.num_operators() || graph.op(op).kind != OperatorKind::kSource) {
      return Sprintf("source rate keyed on operator %d, which is not a source", op);
    }
    if (!std::isfinite(rate) || rate < 0.0) {
      return Sprintf("source rate %g of operator %d is negative or not finite", rate, op);
    }
  }
  return "";
}

// False, with a warning, when `w` names no worker of `cluster`.
bool KnownWorker(const Cluster& cluster, WorkerId w, const char* event) {
  if (w >= 0 && w < cluster.num_workers()) {
    return true;
  }
  CAPSYS_LOG_WARN("scheduler", Sprintf("worker %s ignored: no worker %d in a %d-worker cluster",
                                       event, w, cluster.num_workers()));
  return false;
}

}  // namespace

// One queue entry. Client calls and planner completions use the same queue, so every job
// mutation is serialized through the dispatcher.
struct PlacementService::EventItem {
  enum class Kind : int {
    kSubmit = 0,
    kCancel,
    kRescale,
    kWorkerDead,
    kWorkerRestored,
    kPlanned,
  };
  Kind kind = Kind::kSubmit;
  JobId job = kInvalidJobId;
  WorkerId worker = kInvalidId;
  std::vector<int> parallelism;               // kRescale
  std::unique_ptr<PlanOutcome> plan;          // kPlanned
};

// One planning session: the inputs a planner works from, copied by the dispatcher so it
// can keep mutating the job record without racing the planner.
struct PlacementService::PlanRequest {
  JobId job = kInvalidJobId;
  LogicalGraph graph;  // parallelism to plan; a degraded recovery shrinks it further
  std::map<OperatorId, double> source_rates;
  bool recovering = false;
  bool allow_degraded = false;
  // Thresholds of an earlier plan of this session for `graph`: tuned for a find-first
  // job, all ones for a branch and bound. A replan after a commit conflict reuses them and
  // pays only for the search.
  std::optional<ResourceVector> tuned_alpha;
  ClusterSnapshot snap;  // taken by the dispatcher when it hands the session out
};

// What a planner produced, posted back to the dispatcher, which commits it. `request` is
// the session advanced to the planned graph and α, ready to replan on a conflict.
struct PlacementService::PlanOutcome {
  PlanRequest request;
  bool no_capacity = false;  // the graph does not fit the snapshot and may not degrade
  PlannedPlacement planned;
  bool from_cache = false;
  double planning_time_s = 0.0;
};

struct PlacementService::JobRecord {
  JobId id = kInvalidJobId;
  JobSpec spec;
  LogicalGraph graph;  // current (possibly rescaled/degraded) parallelism
  bool demand_accounted = false;  // status.demand is counted in admitted_demand_
  int tasks = 0;                  // of the requested parallelism (admission accounting)
  JobStatus status;  // lifecycle state, admission verdict, demand, plan and counters
};

std::string SchedulerStats::ToString() const {
  return Sprintf(
      "submitted=%llu admitted=%llu queued=%llu rejected=%llu cancelled=%llu "
      "plans=%llu cached=%llu conflicts=%llu stale=%llu recoveries=%llu downscales=%llu "
      "cache=%llu/%llu epoch=%llu",
      static_cast<unsigned long long>(submitted), static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(queued), static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(plans_committed),
      static_cast<unsigned long long>(plans_from_cache),
      static_cast<unsigned long long>(commit_conflicts),
      static_cast<unsigned long long>(stale_commits),
      static_cast<unsigned long long>(recoveries),
      static_cast<unsigned long long>(downscales), static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), static_cast<unsigned long long>(epoch));
}

PlacementService::PlacementService(Cluster cluster, SchedulerOptions options)
    : cluster_(std::move(cluster)),
      options_(options),
      view_(cluster_),
      cache_(kPlanCacheCapacity),
      planner_pool_(std::make_unique<ThreadPool>(std::max(1, options.planner_threads))),
      start_(std::chrono::steady_clock::now()) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

PlacementService::~PlacementService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // Let in-flight planners finish and post their results (they only enqueue; they never
  // wait on the dispatcher), then drain the queue and stop.
  planner_pool_->Wait();
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  }
  planner_pool_.reset();
}

double PlacementService::NowS() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

void PlacementService::Enqueue(EventItem item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

JobId PlacementService::Submit(JobSpec spec) {
  EventItem ev;
  ev.kind = EventItem::Kind::kSubmit;
  JobId id = kInvalidJobId;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return kInvalidJobId;
    }
    id = next_job_id_++;
    auto rec = std::make_unique<JobRecord>();
    rec->id = id;
    rec->spec = std::move(spec);
    rec->graph = rec->spec.graph;
    rec->status.id = id;
    rec->status.name = rec->spec.name;
    rec->status.submit_time_s = NowS();
    jobs_[id] = std::move(rec);
    ++stats_.submitted;
    ev.job = id;
    queue_.push_back(std::move(ev));
  }
  queue_cv_.notify_one();
  return id;
}

void PlacementService::Cancel(JobId job) {
  EventItem ev;
  ev.kind = EventItem::Kind::kCancel;
  ev.job = job;
  Enqueue(std::move(ev));
}

void PlacementService::Rescale(JobId job, std::vector<int> parallelism) {
  EventItem ev;
  ev.kind = EventItem::Kind::kRescale;
  ev.job = job;
  ev.parallelism = std::move(parallelism);
  Enqueue(std::move(ev));
}

void PlacementService::OnWorkerDead(WorkerId w) {
  EventItem ev;
  ev.kind = EventItem::Kind::kWorkerDead;
  ev.worker = w;
  Enqueue(std::move(ev));
}

void PlacementService::OnWorkerRestored(WorkerId w) {
  EventItem ev;
  ev.kind = EventItem::Kind::kWorkerRestored;
  ev.worker = w;
  Enqueue(std::move(ev));
}

void PlacementService::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_ && planners_in_flight_ == 0) {
        break;
      }
      if (stopping_) {
        // Planners still running will post results; wait for them.
        queue_cv_.wait_for(lock, std::chrono::milliseconds(5));
      }
      continue;
    }
    EventItem ev = std::move(queue_.front());
    queue_.pop_front();
    switch (ev.kind) {
      case EventItem::Kind::kSubmit:
        HandleSubmit(ev.job);
        break;
      case EventItem::Kind::kCancel:
        HandleCancel(ev.job);
        break;
      case EventItem::Kind::kRescale:
        HandleRescale(ev.job, std::move(ev.parallelism));
        break;
      case EventItem::Kind::kWorkerDead:
        HandleWorkerDead(ev.worker);
        break;
      case EventItem::Kind::kWorkerRestored:
        HandleWorkerRestored(ev.worker);
        break;
      case EventItem::Kind::kPlanned:
        HandlePlanned(ev.job, std::move(*ev.plan));
        break;
    }
    DispatchPlansLocked();
    idle_cv_.notify_all();
  }
}

void PlacementService::Transition(JobRecord& rec, JobState to, const std::string& detail) {
  JobState from = rec.status.state;
  rec.status.state = to;
  rec.status.detail = detail;
  EmitJobStateChanged(EventLog::Global().now(), rec.id, JobStateName(from), JobStateName(to),
                      detail);
  CAPSYS_LOG_DEBUG("scheduler", Sprintf("job %lld %s -> %s: %s",
                                        static_cast<long long>(rec.id), JobStateName(from),
                                        JobStateName(to), detail.c_str()));
}

bool PlacementService::ExceedsClusterLocked(int tasks, const ResourceVector& demand) const {
  return tasks > view_.TotalSlots() ||
         !demand.AllLeq(view_.TotalCapacity() * options_.admission_headroom);
}

AdmissionOutcome PlacementService::AdmitLocked(const JobRecord& rec) {
  if (ExceedsClusterLocked(rec.tasks, rec.status.demand)) {
    return AdmissionOutcome::kRejectedCapacity;
  }
  if (rec.tasks > view_.TotalFreeSlots() ||
      !(admitted_demand_ + rec.status.demand)
           .AllLeq(view_.TotalCapacity() * options_.admission_headroom)) {
    return AdmissionOutcome::kQueuedCapacity;
  }
  return AdmissionOutcome::kAdmitted;
}

void PlacementService::HandleSubmit(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  JobRecord& rec = *it->second;
  std::string spec_error =
      rec.graph.num_operators() == 0 ? "empty graph" : rec.graph.Validate();
  if (spec_error.empty() && !CapsSearchable(rec.graph)) {
    spec_error = "forward edge out of an operator with parallelism > 1";
  }
  if (spec_error.empty()) {
    spec_error = SourceRatesError(rec.graph, rec.spec.source_rates);
  }
  if (!spec_error.empty()) {
    rec.status.admission = AdmissionOutcome::kRejectedInvalid;
    ++stats_.rejected;
    EmitAdmissionDecision(EventLog::Global().now(), job,
                          AdmissionOutcomeName(rec.status.admission), 0, view_.TotalFreeSlots());
    Transition(rec, JobState::kRejected, "invalid spec: " + spec_error);
    return;
  }
  JobDemand estimate = EstimateDemand(rec.graph, rec.spec.source_rates);
  rec.status.demand = estimate.demand;
  rec.tasks = estimate.tasks;
  rec.status.tasks = rec.tasks;

  AdmissionOutcome verdict = AdmitLocked(rec);
  if (verdict == AdmissionOutcome::kQueuedCapacity &&
      admission_queue_.size() >= static_cast<size_t>(options_.max_queued_jobs)) {
    verdict = AdmissionOutcome::kRejectedCapacity;
  }
  rec.status.admission = verdict;
  EmitAdmissionDecision(EventLog::Global().now(), job, AdmissionOutcomeName(verdict),
                        rec.tasks, view_.TotalFreeSlots());
  switch (verdict) {
    case AdmissionOutcome::kAdmitted:
      ++stats_.admitted;
      admitted_demand_ += rec.status.demand;
      rec.demand_accounted = true;
      Transition(rec, JobState::kPlanning, "admitted");
      RequestPlanLocked(rec, /*recovering=*/false);
      break;
    case AdmissionOutcome::kQueuedCapacity:
      ++stats_.queued;
      admission_queue_.push_back(job);
      Transition(rec, JobState::kQueued,
                 Sprintf("%d tasks > %d free slots", rec.tasks, view_.TotalFreeSlots()));
      break;
    case AdmissionOutcome::kRejectedCapacity:
      ++stats_.rejected;
      Transition(rec, JobState::kRejected,
                 Sprintf("needs %d tasks / %s, cluster has %d usable slots", rec.tasks,
                         rec.status.demand.ToString().c_str(), view_.TotalSlots()));
      break;
    case AdmissionOutcome::kRejectedInvalid:
      ++stats_.rejected;
      Transition(rec, JobState::kRejected, "invalid spec");
      break;
  }
}

void PlacementService::HandleCancel(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  JobRecord& rec = *it->second;
  if (rec.status.state == JobState::kTerminated || rec.status.state == JobState::kRejected) {
    return;
  }
  ++stats_.cancelled;
  if (rec.status.state == JobState::kQueued) {
    admission_queue_.erase(
        std::remove(admission_queue_.begin(), admission_queue_.end(), job),
        admission_queue_.end());
  }
  if (rec.demand_accounted) {
    admitted_demand_ -= rec.status.demand;
    rec.demand_accounted = false;
  }
  view_.Release(job);
  Transition(rec, JobState::kTerminated, "cancelled");
  ReleaseQueuedLocked();
}

void PlacementService::HandleRescale(JobId job, std::vector<int> parallelism) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  JobRecord& rec = *it->second;
  if (rec.status.state != JobState::kRunning) {
    CAPSYS_LOG_WARN("scheduler", Sprintf("rescale of job %lld ignored in state %s",
                                         static_cast<long long>(job),
                                         JobStateName(rec.status.state)));
    return;
  }
  LogicalGraph resized = rec.graph;
  bool valid =
      parallelism.size() == static_cast<size_t>(rec.graph.num_operators()) &&
      std::all_of(parallelism.begin(), parallelism.end(), [](int p) { return p >= 1; });
  if (valid) {
    resized.SetParallelism(parallelism);
    valid = resized.Validate().empty() && CapsSearchable(resized);
  }
  if (!valid) {
    CAPSYS_LOG_WARN("scheduler", Sprintf("rescale of job %lld ignored: bad parallelism",
                                         static_cast<long long>(job)));
    return;
  }
  // Demand totals change only through rounding (per-task demand is total/p), but the task
  // count does; refresh both for admission accounting.
  JobDemand estimate = EstimateDemand(resized, rec.spec.source_rates);
  if (ExceedsClusterLocked(estimate.tasks, estimate.demand)) {
    // The job keeps running on its plan rather than queue for a cluster it cannot fit.
    CAPSYS_LOG_WARN("scheduler",
                    Sprintf("rescale of job %lld ignored: %d tasks exceed the cluster",
                            static_cast<long long>(job), estimate.tasks));
    return;
  }
  int slots_before = rec.graph.total_parallelism();
  rec.graph = std::move(resized);
  if (rec.demand_accounted) {
    admitted_demand_ -= rec.status.demand;
    admitted_demand_ += estimate.demand;
  }
  rec.status.demand = estimate.demand;
  rec.tasks = estimate.tasks;
  std::string parallelism_str;
  for (int p : parallelism) {
    parallelism_str += Sprintf("%d ", p);
  }
  EmitScaleDecision(EventLog::Global().now(), "scheduler_rescale", slots_before,
                    rec.graph.total_parallelism(), parallelism_str);
  Transition(rec, JobState::kRescaling,
             Sprintf("%d -> %d slots", slots_before, rec.graph.total_parallelism()));
  RequestPlanLocked(rec, /*recovering=*/false);
}

void PlacementService::HandleWorkerDead(WorkerId w) {
  if (!KnownWorker(cluster_, w, "death")) {
    return;
  }
  std::map<JobId, int> affected = view_.MarkWorkerDown(w);
  CAPSYS_LOG_INFO("scheduler", Sprintf("worker %d down; %zu jobs affected", w,
                                       affected.size()));
  for (const auto& [job, lost_slots] : affected) {
    auto it = jobs_.find(job);
    if (it == jobs_.end()) {
      continue;
    }
    JobRecord& rec = *it->second;
    if (rec.status.state != JobState::kRunning && rec.status.state != JobState::kDeploying) {
      // A plan is pending (Planning/Rescaling/Recovering): its commit comes after this
      // event, so it re-validates against the new view and replans on a conflict.
      continue;
    }
    BeginRecoveryLocked(rec, Sprintf("worker %d died, lost %d slots", w, lost_slots));
  }
}

void PlacementService::BeginRecoveryLocked(JobRecord& rec, const std::string& cause) {
  ++stats_.recoveries;
  ++rec.status.recoveries;
  Transition(rec, JobState::kRecovering, cause);
  RequestPlanLocked(rec, /*recovering=*/true);
}

void PlacementService::HandleWorkerRestored(WorkerId w) {
  if (!KnownWorker(cluster_, w, "restore")) {
    return;
  }
  view_.MarkWorkerUp(w);
  CAPSYS_LOG_INFO("scheduler", Sprintf("worker %d restored", w));
  ReleaseQueuedLocked();
}

void PlacementService::ReleaseQueuedLocked() {
  // FIFO with fit-based bypass: older jobs get the first look, but a small job behind a
  // large blocked one may start (documented head-of-line tradeoff; see DESIGN.md §9).
  std::vector<JobId> queued(admission_queue_.begin(), admission_queue_.end());
  for (JobId job : queued) {
    auto it = jobs_.find(job);
    if (it == jobs_.end()) {
      continue;
    }
    JobRecord& rec = *it->second;
    if (AdmitLocked(rec) != AdmissionOutcome::kAdmitted) {
      continue;
    }
    admission_queue_.erase(
        std::remove(admission_queue_.begin(), admission_queue_.end(), job),
        admission_queue_.end());
    ++stats_.admitted;
    rec.status.admission = AdmissionOutcome::kAdmitted;
    admitted_demand_ += rec.status.demand;
    rec.demand_accounted = true;
    EmitAdmissionDecision(EventLog::Global().now(), job, "readmitted", rec.tasks,
                          view_.TotalFreeSlots());
    Transition(rec, JobState::kPlanning, "capacity freed; re-admitted");
    RequestPlanLocked(rec, /*recovering=*/false);
  }
}

void PlacementService::RequestPlanLocked(const JobRecord& rec, bool recovering) {
  PlanRequest req;
  req.job = rec.id;
  req.graph = rec.graph;
  req.source_rates = rec.spec.source_rates;
  req.recovering = recovering;
  req.allow_degraded = rec.spec.allow_degraded_recovery;
  plan_queue_.push_back(std::move(req));
}

void PlacementService::DispatchPlansLocked() {
  while (!stopping_ && !plan_queue_.empty() &&
         planners_in_flight_ < planner_pool_->num_threads()) {
    PlanRequest req = std::move(plan_queue_.front());
    plan_queue_.pop_front();
    if (jobs_.at(req.job)->status.state == JobState::kTerminated) {
      continue;  // cancelled while waiting for a planner
    }
    req.snap = view_.SnapshotFor(req.job);
    ++planners_in_flight_;
    planner_pool_->Submit([this, req = std::move(req)]() mutable { RunPlanner(std::move(req)); });
  }
}

void PlacementService::RunPlanner(PlanRequest req) {
  Span span("scheduler.plan");
  span.AddAttr("job", static_cast<int>(req.job));
  auto t0 = std::chrono::steady_clock::now();
  auto outcome = std::make_unique<PlanOutcome>();
  if (req.graph.total_parallelism() > req.snap.total_free) {
    if (req.recovering && req.allow_degraded && FitParallelism(req.graph, req.snap.total_free)) {
      req.tuned_alpha.reset();  // parallelism changed; thresholds must be re-tuned
    } else {
      outcome->no_capacity = true;
    }
  }
  if (!outcome->no_capacity) {
    PhysicalGraph physical = PhysicalGraph::Expand(req.graph);
    Cluster residual = req.snap.ResidualCluster(cluster_);
    std::string key;
    if (options_.enable_plan_cache) {
      key = PlanCache::Key(req.graph, req.source_rates, residual);
      auto cached = cache_.Lookup(key);
      if (cached.has_value() && cached->placement.num_tasks() == physical.num_tasks()) {
        outcome->planned = PlannedPlacement{cached->placement, cached->cost, cached->alpha, {}};
        outcome->from_cache = true;
      }
    }
    if (!outcome->from_cache) {
      Span search_span("scheduler.search");
      CostModel model(physical, residual,
                      TaskDemands(physical, PropagateRates(req.graph, req.source_rates)));
      outcome->planned = PlanPlacement(model, req.tuned_alpha, options_.autotune,
                                       options_.find_first_above_tasks);
      if (options_.enable_plan_cache) {
        cache_.Insert(key, CachedPlan{outcome->planned.placement, outcome->planned.alpha,
                                      outcome->planned.cost});
      }
    }
    req.tuned_alpha = outcome->planned.alpha;
  }
  outcome->planning_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EventItem ev;
  ev.kind = EventItem::Kind::kPlanned;
  ev.job = req.job;
  outcome->request = std::move(req);
  ev.plan = std::move(outcome);
  Enqueue(std::move(ev));
}

void PlacementService::HandlePlanned(JobId job, PlanOutcome outcome) {
  --planners_in_flight_;
  JobRecord& rec = *jobs_.at(job);
  ++rec.status.plan_attempts;
  rec.status.planning_time_s += outcome.planning_time_s;
  if (rec.status.state == JobState::kTerminated) {
    return;  // cancelled while planning; HandleCancel released everything
  }
  const PlanRequest& req = outcome.request;
  if (outcome.no_capacity) {
    // No capacity at plan time: back to the admission queue until capacity frees.
    // Structured — never a CHECK abort.
    view_.Release(job);
    if (rec.demand_accounted) {
      admitted_demand_ -= rec.status.demand;
      rec.demand_accounted = false;
    }
    ++stats_.queued;
    rec.status.admission = AdmissionOutcome::kQueuedCapacity;
    admission_queue_.push_back(job);
    if (req.recovering) {
      EmitRecoveryVerdict(EventLog::Global().now(), "unplaceable",
                          view_.TotalSlots() / std::max(1, cluster_.slots_per_worker()));
    }
    Transition(rec, JobState::kQueued,
               req.recovering ? "recovery unplaceable; queued for capacity"
                              : "no capacity at plan time; queued");
    ReleaseQueuedLocked();
    return;
  }
  CommitResult commit = view_.TryCommit(job, req.snap.epoch,
                                        outcome.planned.placement.LoadByWorker(cluster_));
  if (commit == CommitResult::kConflict) {
    // Another commit or a worker death took slots this plan used. Replan first, ahead of
    // sessions that have not been planned yet, with the same graph and α.
    ++stats_.commit_conflicts;
    ++rec.status.commit_conflicts;
    plan_queue_.push_front(std::move(outcome.request));
    return;
  }
  ++stats_.plans_committed;
  if (outcome.from_cache) {
    ++stats_.plans_from_cache;
  }
  if (commit == CommitResult::kCommittedStale) {
    ++stats_.stale_commits;
  }
  int downscale_steps = rec.graph.total_parallelism() - req.graph.total_parallelism();
  stats_.downscales += static_cast<uint64_t>(downscale_steps);
  rec.graph = req.graph;
  rec.tasks = outcome.planned.placement.num_tasks();
  rec.status.tasks = rec.tasks;
  rec.status.parallelism = rec.graph.Parallelism();
  rec.status.placement = outcome.planned.placement;
  rec.status.alpha = outcome.planned.alpha;
  rec.status.plan_cost = outcome.planned.cost;
  rec.status.degraded = downscale_steps > 0;
  rec.status.plan_from_cache = outcome.from_cache;
  EmitPlacementDecision(EventLog::Global().now(), "scheduler", rec.tasks,
                        cluster_.num_workers(), outcome.planned.alpha, outcome.planned.cost,
                        outcome.planning_time_s);
  Transition(rec, JobState::kDeploying,
             Sprintf("%s commit%s", CommitResultName(commit),
                     outcome.from_cache ? " (cached plan)" : ""));
  // The runtime hand-off is immediate in this reproduction (the simulator-side runtime is
  // attached out-of-band); the two transitions are kept distinct for the state machine.
  Transition(rec, JobState::kRunning,
             rec.status.degraded ? "running degraded" : "running");
  if (rec.status.running_time_s < 0.0) {
    rec.status.running_time_s = NowS();
    rec.status.decision_latency_s = rec.status.running_time_s - rec.status.submit_time_s;
  }
  if (req.recovering) {
    EmitRecoveryVerdict(EventLog::Global().now(),
                        rec.status.degraded ? "recovered_degraded" : "recovered_full",
                        view_.TotalSlots() / std::max(1, cluster_.slots_per_worker()));
  }
  // A downscale or a rescale to fewer slots frees capacity for queued jobs.
  ReleaseQueuedLocked();
}

JobStatus PlacementService::Status(JobId job) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return JobStatus{};
  }
  return it->second->status;
}

std::vector<JobStatus> PlacementService::AllStatuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) {
    out.push_back(rec->status);
  }
  return out;
}

SchedulerStats PlacementService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats s = stats_;
  s.epoch = view_.epoch();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  return s;
}

bool PlacementService::WaitIdle(double timeout_s) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_until(lock, deadline, [this] {
    if (!queue_.empty() || planners_in_flight_ > 0) {
      return false;
    }
    for (const auto& [id, rec] : jobs_) {
      switch (rec->status.state) {
        case JobState::kSubmitted:
        case JobState::kPlanning:
        case JobState::kDeploying:
        case JobState::kRescaling:
        case JobState::kRecovering:
          return false;
        default:
          break;
      }
    }
    return true;
  });
}

}  // namespace capsys
