#include "src/scheduler/placement_service.h"

#include <algorithm>
#include <atomic>
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

// Conflict retries per planning session, with exponential backoff between them.
constexpr int kMaxPlanAttempts = 10;
constexpr double kBackoffBaseS = 0.001;  // doubles per conflict
constexpr double kBackoffMaxS = 0.064;
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
    kPlanCommitted,
    kPlanFailed,
  };
  Kind kind = Kind::kSubmit;
  JobId job = kInvalidJobId;
  WorkerId worker = kInvalidId;
  std::vector<int> parallelism;               // kRescale
  std::unique_ptr<PlanOutcome> plan;          // kPlanCommitted / kPlanFailed
};

// Everything a planner produced, posted back to the dispatcher.
struct PlacementService::PlanOutcome {
  enum class Fail : int { kNone = 0, kNoCapacity, kCancelled };
  Fail fail = Fail::kNone;
  PlannedPlacement planned;
  SlotReservation reservation;
  std::vector<int> parallelism;
  bool from_cache = false;
  bool recovering = false;
  int attempts = 0;
  int conflicts = 0;
  int downscale_steps = 0;  // slots shed by FitParallelism; > 0 means degraded
  double planning_time_s = 0.0;
  CommitResult commit = CommitResult::kCommitted;
};

// Immutable inputs a planner task works from (copied at spawn time so the dispatcher can
// keep mutating the job record without racing the planner).
struct PlacementService::PlanRequest {
  JobId job = kInvalidJobId;
  LogicalGraph graph;
  std::map<OperatorId, double> source_rates;
  bool recovering = false;
  bool allow_degraded = false;
  std::atomic<bool>* cancelled = nullptr;  // owned by the JobRecord, never destroyed early
};

struct PlacementService::JobRecord {
  JobId id = kInvalidJobId;
  JobSpec spec;
  LogicalGraph graph;  // current (possibly rescaled/degraded) parallelism
  bool demand_accounted = false;  // status.demand is counted in admitted_demand_
  int tasks = 0;                  // of the requested parallelism (admission accounting)
  std::atomic<bool> cancelled{false};
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
      case EventItem::Kind::kPlanCommitted:
        HandlePlanCommitted(ev.job, std::move(*ev.plan));
        break;
      case EventItem::Kind::kPlanFailed:
        HandlePlanFailed(ev.job, std::move(*ev.plan));
        break;
    }
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

AdmissionOutcome PlacementService::AdmitLocked(JobRecord& rec) {
  ResourceVector ceiling = view_.TotalCapacity() * options_.admission_headroom;
  if (rec.tasks > view_.TotalSlots() || !rec.status.demand.AllLeq(ceiling)) {
    return AdmissionOutcome::kRejectedCapacity;
  }
  if (rec.tasks > view_.TotalFreeSlots() ||
      !(admitted_demand_ + rec.status.demand).AllLeq(ceiling)) {
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
  if (rec.cancelled.load()) {
    Transition(rec, JobState::kTerminated, "cancelled before admission");
    return;
  }
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
      SpawnPlanner(rec, /*recovering=*/false);
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
  rec.cancelled.store(true);
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
  int slots_before = rec.graph.total_parallelism();
  rec.graph = std::move(resized);
  // Demand totals change only through rounding (per-task demand is total/p), but the task
  // count does; refresh both for admission accounting.
  JobDemand estimate = EstimateDemand(rec.graph, rec.spec.source_rates);
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
  SpawnPlanner(rec, /*recovering=*/false);
}

void PlacementService::HandleWorkerDead(WorkerId w) {
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
      // A planner is already in flight (Planning/Rescaling/Recovering): its commit will
      // re-validate against the new view and replan on conflict; a commit that lands
      // before this event is caught by HandlePlanCommitted.
      continue;
    }
    BeginRecoveryLocked(rec, Sprintf("worker %d died, lost %d slots", w, lost_slots));
  }
}

void PlacementService::BeginRecoveryLocked(JobRecord& rec, const std::string& cause) {
  ++stats_.recoveries;
  ++rec.status.recoveries;
  Transition(rec, JobState::kRecovering, cause);
  SpawnPlanner(rec, /*recovering=*/true);
}

void PlacementService::HandleWorkerRestored(WorkerId w) {
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
    SpawnPlanner(rec, /*recovering=*/false);
  }
}

void PlacementService::SpawnPlanner(JobRecord& rec, bool recovering) {
  if (stopping_) {
    return;
  }
  PlanRequest req;
  req.job = rec.id;
  req.graph = rec.graph;
  req.source_rates = rec.spec.source_rates;
  req.recovering = recovering;
  req.allow_degraded = rec.spec.allow_degraded_recovery;
  req.cancelled = &rec.cancelled;
  ++planners_in_flight_;
  planner_pool_->Submit([this, req = std::move(req)]() mutable { RunPlanner(std::move(req)); });
}

void PlacementService::RunPlanner(PlanRequest req) {
  Span span("scheduler.plan");
  span.AddAttr("job", static_cast<int>(req.job));
  auto t0 = std::chrono::steady_clock::now();
  auto outcome = std::make_unique<PlanOutcome>();
  outcome->recovering = req.recovering;
  EventItem ev;
  ev.job = req.job;
  ev.kind = EventItem::Kind::kPlanFailed;

  LogicalGraph graph = req.graph;
  // Tuned thresholds depend on the job's demand shape, not on which slots happen to be
  // free, so one auto-tune per planning session is enough: conflict retries reuse it and
  // pay only for the (much cheaper) re-search. Re-tuned only when degradation changes the
  // graph.
  std::optional<ResourceVector> tuned_alpha;
  while (outcome->attempts < kMaxPlanAttempts) {
    ++outcome->attempts;
    if (req.cancelled->load()) {
      outcome->fail = PlanOutcome::Fail::kCancelled;
      break;
    }
    ClusterSnapshot snap = view_.SnapshotFor(req.job);
    if (graph.total_parallelism() > snap.total_free) {
      LogicalGraph shrunk = req.graph;  // re-derive from the requested parallelism
      if (!req.recovering || !req.allow_degraded || !FitParallelism(shrunk, snap.total_free)) {
        outcome->fail = PlanOutcome::Fail::kNoCapacity;
        break;
      }
      outcome->downscale_steps = req.graph.total_parallelism() - shrunk.total_parallelism();
      graph = std::move(shrunk);
      tuned_alpha.reset();  // parallelism changed; thresholds must be re-tuned
    }
    PhysicalGraph physical = PhysicalGraph::Expand(graph);
    auto rates = PropagateRates(graph, req.source_rates);
    auto demands = TaskDemands(physical, rates);
    Cluster residual = snap.ResidualCluster(cluster_);
    std::string key;
    std::optional<PlannedPlacement> planned;
    if (options_.enable_plan_cache) {
      key = PlanCache::Key(graph, req.source_rates, residual);
      auto cached = cache_.Lookup(key);
      if (cached.has_value() && cached->placement.num_tasks() == physical.num_tasks()) {
        planned = PlannedPlacement{cached->placement, cached->cost, cached->alpha, {}};
      }
    }
    const bool hit = planned.has_value();
    if (!hit) {
      Span search_span("scheduler.search");
      CostModel model(physical, residual, demands);
      planned = PlanPlacement(model, tuned_alpha, options_.autotune, options_.search_threads,
                              options_.search_timeout_s, options_.find_first_above_tasks);
      tuned_alpha = planned->alpha;
    }
    SlotReservation reservation = planned->placement.LoadByWorker(cluster_);
    CommitResult cr = view_.TryCommit(req.job, snap.epoch, reservation);
    if (cr == CommitResult::kConflict) {
      ++outcome->conflicts;
      double backoff =
          std::min(kBackoffMaxS, kBackoffBaseS * std::pow(2.0, outcome->conflicts - 1));
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      continue;
    }
    if (!hit && options_.enable_plan_cache) {
      cache_.Insert(key, CachedPlan{planned->placement, planned->alpha, planned->cost});
    }
    outcome->fail = PlanOutcome::Fail::kNone;
    outcome->commit = cr;
    outcome->planned = std::move(*planned);
    outcome->reservation = std::move(reservation);
    outcome->from_cache = hit;
    outcome->parallelism = graph.Parallelism();
    ev.kind = EventItem::Kind::kPlanCommitted;
    break;
  }
  if (ev.kind == EventItem::Kind::kPlanFailed &&
      outcome->fail == PlanOutcome::Fail::kNone) {
    outcome->fail = PlanOutcome::Fail::kNoCapacity;  // attempts exhausted on conflicts
  }
  outcome->planning_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  span.AddAttr("attempts", outcome->attempts);
  ev.plan = std::move(outcome);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(ev));
    --planners_in_flight_;
  }
  queue_cv_.notify_one();
  idle_cv_.notify_all();
}

void PlacementService::HandlePlanCommitted(JobId job, PlanOutcome outcome) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    view_.Release(job);
    return;
  }
  JobRecord& rec = *it->second;
  stats_.commit_conflicts += static_cast<uint64_t>(outcome.conflicts);
  rec.status.plan_attempts += outcome.attempts;
  rec.status.commit_conflicts += outcome.conflicts;
  rec.status.planning_time_s += outcome.planning_time_s;
  if (rec.cancelled.load() || rec.status.state == JobState::kTerminated ||
      rec.status.state == JobState::kRejected) {
    // Lost the race with a cancel: the commit went through, take it back.
    view_.Release(job);
    return;
  }
  ++stats_.plans_committed;
  if (outcome.from_cache) {
    ++stats_.plans_from_cache;
  }
  if (outcome.commit == CommitResult::kCommittedStale) {
    ++stats_.stale_commits;
  }
  stats_.downscales += static_cast<uint64_t>(outcome.downscale_steps);
  rec.graph.SetParallelism(outcome.parallelism);
  rec.tasks = outcome.planned.placement.num_tasks();
  rec.status.tasks = rec.tasks;
  rec.status.parallelism = outcome.parallelism;
  rec.status.placement = outcome.planned.placement;
  rec.status.alpha = outcome.planned.alpha;
  rec.status.plan_cost = outcome.planned.cost;
  rec.status.degraded = outcome.downscale_steps > 0;
  rec.status.plan_from_cache = outcome.from_cache;
  EmitPlacementDecision(EventLog::Global().now(), "scheduler", rec.tasks,
                        cluster_.num_workers(), outcome.planned.alpha, outcome.planned.cost,
                        outcome.planning_time_s);
  SlotReservation held = view_.ReservationOf(job);
  if (held != outcome.reservation) {
    // A worker died after the commit landed but while the job was still planning, so
    // HandleWorkerDead left it to this handler: the tasks placed there are gone.
    int lost = 0;
    for (size_t w = 0; w < held.size(); ++w) {
      lost += outcome.reservation[w] - held[w];
    }
    BeginRecoveryLocked(rec, Sprintf("a worker died under the new plan, lost %d slots", lost));
    return;
  }
  Transition(rec, JobState::kDeploying,
             Sprintf("%s commit (%d attempts%s)", CommitResultName(outcome.commit),
                     outcome.attempts, outcome.from_cache ? ", cached plan" : ""));
  // The runtime hand-off is immediate in this reproduction (the simulator-side runtime is
  // attached out-of-band); the two transitions are kept distinct for the state machine.
  Transition(rec, JobState::kRunning,
             rec.status.degraded ? "running degraded" : "running");
  if (rec.status.running_time_s < 0.0) {
    rec.status.running_time_s = NowS();
    rec.status.decision_latency_s = rec.status.running_time_s - rec.status.submit_time_s;
  }
  if (outcome.recovering) {
    EmitRecoveryVerdict(EventLog::Global().now(),
                        rec.status.degraded ? "recovered_degraded" : "recovered_full",
                        view_.TotalSlots() / std::max(1, cluster_.slots_per_worker()));
  }
  // A downscale or a rescale to fewer slots frees capacity for queued jobs.
  ReleaseQueuedLocked();
}

void PlacementService::HandlePlanFailed(JobId job, PlanOutcome outcome) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  JobRecord& rec = *it->second;
  stats_.commit_conflicts += static_cast<uint64_t>(outcome.conflicts);
  rec.status.plan_attempts += outcome.attempts;
  rec.status.commit_conflicts += outcome.conflicts;
  rec.status.planning_time_s += outcome.planning_time_s;
  view_.Release(job);
  if (rec.demand_accounted) {
    admitted_demand_ -= rec.status.demand;
    rec.demand_accounted = false;
  }
  if (outcome.fail == PlanOutcome::Fail::kCancelled || rec.cancelled.load() ||
      rec.status.state == JobState::kTerminated || rec.status.state == JobState::kRejected) {
    if (rec.status.state != JobState::kTerminated && rec.status.state != JobState::kRejected) {
      Transition(rec, JobState::kTerminated, "cancelled while planning");
    }
    ReleaseQueuedLocked();
    return;
  }
  // No capacity at plan time (or conflict retries exhausted): back to the admission queue
  // until capacity frees. Structured — never a CHECK abort.
  ++stats_.queued;
  rec.status.admission = AdmissionOutcome::kQueuedCapacity;
  admission_queue_.push_back(job);
  if (outcome.recovering) {
    EmitRecoveryVerdict(EventLog::Global().now(), "unplaceable",
                        view_.TotalSlots() / std::max(1, cluster_.slots_per_worker()));
  }
  Transition(rec, JobState::kQueued,
             outcome.recovering ? "recovery unplaceable; queued for capacity"
                                : "no capacity at plan time; queued");
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
  s.stale_commits = view_.stale_commits();
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
