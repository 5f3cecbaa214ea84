#include "src/simulator/fluid_simulator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

constexpr double kEps = 1e-12;
// Buffer-debloating stand-in: a task's input queue holds kBufferSeconds of its target
// input rate, floored at kMinQueueRecords.
constexpr double kBufferSeconds = 0.5;
constexpr double kMinQueueRecords = 64.0;
// Mean source backpressure at flush time at/above which a BackpressureOnset event is
// emitted (and below which a following BackpressureCleared is).
constexpr double kBackpressureOnsetThreshold = 0.5;

enum class Scope : uint8_t { kTask, kOperator, kWorker, kQuery };

// Scope and metric name of each FluidSimulator::Row, in Row order.
struct RowSpec {
  Scope scope;
  const char* metric;
};
constexpr RowSpec kRowSpecs[] = {
    {Scope::kTask, "true_rate"},         {Scope::kOperator, "emit_rate"},
    {Scope::kOperator, "backpressure"},  {Scope::kOperator, "in_rate"},
    {Scope::kOperator, "out_rate"},      {Scope::kOperator, "cpu_used"},
    {Scope::kOperator, "io_bps"},        {Scope::kOperator, "net_bps"},
    {Scope::kWorker, "cpu_util"},        {Scope::kWorker, "io_util"},
    {Scope::kWorker, "net_util"},        {Scope::kWorker, "cpu_used"},
    {Scope::kWorker, "io_bps"},          {Scope::kWorker, "net_bps"},
    {Scope::kQuery, "throughput"},       {Scope::kQuery, "backpressure"},
    {Scope::kQuery, "latency"},          {Scope::kQuery, "sink_rate"},
};

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

std::string QuerySummary::ToString() const {
  return Sprintf("throughput=%.1f rec/s bp=%.1f%% latency=%.3fs sink=%.1f rec/s util=%s",
                 throughput, backpressure * 100.0, latency_s, sink_rate,
                 max_worker_utilization.ToString().c_str());
}

FluidSimulator::FluidSimulator(const PhysicalGraph& graph, const Cluster& cluster,
                               const Placement& placement, double metrics_interval_s)
    : graph_(graph),
      cluster_(cluster),
      placement_(placement),
      metrics_interval_s_(metrics_interval_s) {
  std::string err = placement_.Validate(graph_, cluster_);
  CAPSYS_CHECK_MSG(err.empty(), err);
  size_t n = static_cast<size_t>(graph_.num_tasks());
  queue_.assign(n, 0.0);
  is_source_.assign(n, false);
  for (const auto& t : graph_.tasks()) {
    if (graph_.logical().op(t.op).kind == OperatorKind::kSource) {
      is_source_[static_cast<size_t>(t.id)] = true;
    }
  }
  for (OperatorId s : graph_.logical().SourceIds()) {
    source_rates_[s] = 0.0;
  }
  failed_.assign(static_cast<size_t>(cluster_.num_workers()), false);
  degrade_.assign(static_cast<size_t>(cluster_.num_workers()), 1.0);
  checkpoint_io_bps_.assign(static_cast<size_t>(cluster_.num_workers()), 0.0);
  op_source_tasks_.assign(static_cast<size_t>(graph_.num_operators()), 0);
  for (const auto& t : graph_.tasks()) {
    if (is_source_[static_cast<size_t>(t.id)]) {
      ++op_source_tasks_[static_cast<size_t>(t.op)];
    }
  }
  static_assert(std::size(kRowSpecs) == kNumRows);
  for (int r = 0; r < kNumRows; ++r) {
    size_t width = 1;
    switch (kRowSpecs[r].scope) {
      case Scope::kTask:
        width = n;
        break;
      case Scope::kOperator:
        width = static_cast<size_t>(graph_.num_operators());
        break;
      case Scope::kWorker:
        width = static_cast<size_t>(cluster_.num_workers());
        break;
      case Scope::kQuery:
        break;
    }
    row_base_[r + 1] = row_base_[r] + width;
  }
  tick_.assign(row_base_[kNumRows], 0.0);
  sums_.assign(row_base_[kNumRows], 0.0);
  queue_at_tick_start_.assign(n, 0.0);
  failed_snapshot_ = failed_;
  degrade_snapshot_ = degrade_;
  checkpoint_io_snapshot_ = checkpoint_io_bps_;
  RebuildStatics();
}

void FluidSimulator::RebuildStatics() {
  size_t n = static_cast<size_t>(graph_.num_tasks());
  down_tasks_.assign(n, {});
  remote_fraction_.assign(n, 0.0);
  for (const auto& t : graph_.tasks()) {
    for (ChannelId c : graph_.DownstreamChannels(t.id)) {
      down_tasks_[static_cast<size_t>(t.id)].push_back(graph_.channel(c).to);
    }
    remote_fraction_[static_cast<size_t>(t.id)] = placement_.RemoteFraction(graph_, t.id);
  }
  worker_tasks_.assign(static_cast<size_t>(cluster_.num_workers()), {});
  for (const auto& t : graph_.tasks()) {
    worker_tasks_[static_cast<size_t>(placement_.WorkerOf(t.id))].push_back(
        static_cast<size_t>(t.id));
  }
  // Queue capacities from target rates (buffer-debloating stand-in).
  auto rates = PropagateRates(graph_.logical(), source_rates_);
  queue_capacity_.assign(n, kMinQueueRecords);
  for (const auto& t : graph_.tasks()) {
    const auto& op = graph_.logical().op(t.op);
    double per_task_in = rates[static_cast<size_t>(t.op)].input_rate / op.parallelism;
    queue_capacity_[static_cast<size_t>(t.id)] =
        std::max(kMinQueueRecords, per_task_in * kBufferSeconds);
  }
  // Static per-task costs (constant between calls to this function).
  task_op_.assign(n, 0);
  task_selectivity_.assign(n, 0.0);
  task_io_cost_.assign(n, 0.0);
  task_net_cost_.assign(n, 0.0);
  task_out_cost_.assign(n, 0.0);
  source_task_rate_.assign(n, 0.0);
  num_source_tasks_ = 0;
  for (const auto& t : graph_.tasks()) {
    size_t i = static_cast<size_t>(t.id);
    const auto& op = graph_.logical().op(t.op);
    task_op_[i] = t.op;
    task_selectivity_[i] = op.profile.selectivity;
    task_io_cost_[i] = op.profile.io_bytes_per_record;
    task_out_cost_[i] = op.profile.selectivity * op.profile.out_bytes_per_record;
    task_net_cost_[i] = task_out_cost_[i] * remote_fraction_[i];
    if (is_source_[i]) {
      source_task_rate_[i] = source_rates_.at(t.op) / op.parallelism;
      ++num_source_tasks_;
    }
  }
  total_target_rate_ = 0.0;
  for (const auto& [op, r] : source_rates_) {
    total_target_rate_ += r;
  }
  // Per-worker solver arenas: everything but desired_rate is fixed until the next rebuild.
  size_t num_workers = static_cast<size_t>(cluster_.num_workers());
  worker_loads_.assign(num_workers, {});
  for (size_t w = 0; w < num_workers; ++w) {
    for (size_t i : worker_tasks_[w]) {
      TaskLoad l;
      const auto& prof = graph_.logical().op(task_op_[i]).profile;
      l.task = static_cast<TaskId>(i);
      l.cpu_per_record = prof.cpu_per_record;
      l.io_per_record = task_io_cost_[i];
      l.net_per_record = task_net_cost_[i];
      l.stateful = prof.stateful;
      l.gc_fraction = prof.gc_spike_fraction;
      worker_loads_[w].push_back(l);
    }
  }
  worker_alloc_.resize(num_workers);
  worker_scratch_.resize(num_workers);
  // Size the per-tick scratch once so Step() only overwrites in place.
  desired_.assign(n, 0.0);
  rate_cap_.assign(n, 0.0);
  true_rate_.assign(n, 0.0);
  eff_cpu_cost_.assign(n, 0.0);
  eff_io_bw_.assign(num_workers, 0.0);
  proc_raw_.assign(n, 0.0);
  claim_total_.assign(n, 0.0);
  accept_.assign(n, 1.0);
  emit_factor_.assign(n, 1.0);
  enqueue_.assign(n, 0.0);
  processed_rate_.assign(n, 0.0);
  replaying_ = false;
}

void FluidSimulator::FailWorker(WorkerId w) {
  CAPSYS_CHECK(w >= 0 && w < cluster_.num_workers());
  failed_[static_cast<size_t>(w)] = true;
}

void FluidSimulator::RestoreWorker(WorkerId w) {
  CAPSYS_CHECK(w >= 0 && w < cluster_.num_workers());
  failed_[static_cast<size_t>(w)] = false;
}

void FluidSimulator::DegradeWorker(WorkerId w, double factor) {
  CAPSYS_CHECK(w >= 0 && w < cluster_.num_workers());
  CAPSYS_CHECK_MSG(factor > 0.0 && factor <= 1.0, "degrade factor must be in (0, 1]");
  degrade_[static_cast<size_t>(w)] = factor;
}

void FluidSimulator::SetWorkerCheckpointIoBps(WorkerId w, double bps) {
  CAPSYS_CHECK(w >= 0 && w < cluster_.num_workers());
  CAPSYS_CHECK_MSG(bps >= 0.0, "checkpoint io must be non-negative");
  checkpoint_io_bps_[static_cast<size_t>(w)] = bps;
}

void FluidSimulator::ClearCheckpointIo() {
  std::fill(checkpoint_io_bps_.begin(), checkpoint_io_bps_.end(), 0.0);
}

void FluidSimulator::SetSourceRate(OperatorId source_op, double records_per_s) {
  CAPSYS_CHECK_MSG(source_rates_.count(source_op) == 1, "not a source operator");
  source_rates_[source_op] = records_per_s;
  RebuildStatics();
}

void FluidSimulator::SetAllSourceRates(double records_per_s) {
  for (auto& [op, rate] : source_rates_) {
    rate = records_per_s;
  }
  RebuildStatics();
}

void FluidSimulator::Step() {
  if (replaying_ && InputsMatchReplaySnapshot()) {
    // This tick starts from the queues and inputs of the solved fixed-point tick that
    // filled tick_, so it would compute the same doubles: re-add them.
    ++replayed_ticks_;
  } else {
    solved_in_interval_ = true;
    replaying_ = SolveTick();
    if (replaying_) {
      std::copy(failed_.begin(), failed_.end(), failed_snapshot_.begin());
      std::copy(degrade_.begin(), degrade_.end(), degrade_snapshot_.begin());
      std::copy(checkpoint_io_bps_.begin(), checkpoint_io_bps_.end(),
                checkpoint_io_snapshot_.begin());
    }
  }
  for (size_t k = 0; k < sums_.size(); ++k) {
    sums_[k] += tick_[k];
  }
  ++pending_ticks_;
  ++ticks_;
  time_s_ += kTickS;
  if (time_s_ - last_flush_s_ >= metrics_interval_s_ - kEps) {
    FlushMetrics();
  }
}

bool FluidSimulator::InputsMatchReplaySnapshot() const {
  return failed_ == failed_snapshot_ && SameBytes(degrade_, degrade_snapshot_) &&
         SameBytes(checkpoint_io_bps_, checkpoint_io_snapshot_);
}

bool FluidSimulator::SolveTick() {
  const double dt = kTickS;
  const size_t n = static_cast<size_t>(graph_.num_tasks());
  std::copy(queue_.begin(), queue_.end(), queue_at_tick_start_.begin());

  // --- 1. Desired processing rates -------------------------------------------------------
  for (size_t i = 0; i < n; ++i) {
    desired_[i] = is_source_[i] ? source_task_rate_[i] : queue_[i] / dt;
  }

  // --- 2. Per-worker contention solve -----------------------------------------------------
  const WorkerId num_workers = cluster_.num_workers();
  for (WorkerId w = 0; w < num_workers; ++w) {
    size_t wi = static_cast<size_t>(w);
    const auto& idxs = worker_tasks_[wi];
    std::vector<TaskLoad>& loads = worker_loads_[wi];
    for (size_t k = 0; k < idxs.size(); ++k) {
      loads[k].desired_rate = desired_[idxs[k]];
    }
    WorkerAllocation& alloc = worker_alloc_[wi];
    if (double ckpt_bps = checkpoint_io_bps_[wi]; ckpt_bps > 0.0) {
      // Snapshot upload competes for the disk: the tasks contend for what remains (floored
      // so a misconfigured coordinator cannot starve the worker outright).
      WorkerSpec spec = cluster_.worker(w).spec;
      spec.io_bandwidth_bps = std::max(0.1 * spec.io_bandwidth_bps,
                                       spec.io_bandwidth_bps - ckpt_bps);
      SolveWorkerInPlace(spec, kContention, loads, worker_scratch_[wi], alloc);
    } else {
      SolveWorkerInPlace(cluster_.worker(w).spec, kContention, loads, worker_scratch_[wi], alloc);
    }
    if (failed_[wi]) {
      std::fill(alloc.rate.begin(), alloc.rate.end(), 0.0);
      std::fill(alloc.capacity_rate.begin(), alloc.capacity_rate.end(), 0.0);
    } else if (double degrade = degrade_[wi]; degrade < 1.0) {
      // Transient slowdown: the whole worker runs at a fraction of its solved capacity.
      for (double& r : alloc.rate) {
        r *= degrade;
      }
      for (double& r : alloc.capacity_rate) {
        r *= degrade;
      }
    }
    eff_io_bw_[wi] = alloc.effective_io_bandwidth;
    for (size_t k = 0; k < idxs.size(); ++k) {
      rate_cap_[idxs[k]] = alloc.rate[k];
      true_rate_[idxs[k]] = alloc.capacity_rate[k];
      eff_cpu_cost_[idxs[k]] = alloc.effective_cpu_per_record[k];
    }
  }

  // --- 3. Raw processing amounts and downstream claims ------------------------------------
  for (size_t i = 0; i < n; ++i) {
    if (is_source_[i]) {
      proc_raw_[i] = std::min(rate_cap_[i], desired_[i]) * dt;
    } else {
      proc_raw_[i] = std::min(queue_[i], rate_cap_[i] * dt);
    }
  }
  // Free space per downstream task (conservative: no credit for this tick's drain).
  claim_total_.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const auto& downs = down_tasks_[i];
    if (downs.empty()) {
      continue;
    }
    double out = proc_raw_[i] * task_selectivity_[i];
    double share = out / static_cast<double>(downs.size());
    for (TaskId d : downs) {
      claim_total_[static_cast<size_t>(d)] += share;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    accept_[i] = 1.0;
    if (claim_total_[i] > kEps) {
      double free = std::max(0.0, queue_capacity_[i] - queue_[i]);
      accept_[i] = std::min(1.0, free / claim_total_[i]);
    }
  }

  // --- 4. Emit factors: one blocked channel blocks the whole task (Flink semantics) -------
  for (size_t i = 0; i < n; ++i) {
    double f = 1.0;
    for (TaskId d : down_tasks_[i]) {
      f = std::min(f, accept_[static_cast<size_t>(d)]);
    }
    emit_factor_[i] = f;
  }

  // --- 5. Apply transfers -----------------------------------------------------------------
  enqueue_.assign(n, 0.0);
  double* task_true = TickRow(kTaskTrueRate);
  double* op_emit = TickRow(kOpEmitRate);
  double* op_bp = TickRow(kOpBackpressure);
  double* op_in = TickRow(kOpInRate);
  double* op_out = TickRow(kOpOutRate);
  double* op_cpu = TickRow(kOpCpuUsed);
  double* op_io = TickRow(kOpIoBps);
  double* op_net = TickRow(kOpNetBps);
  // The operator rows, kOpEmitRate through kOpNetBps, are sums over each operator's tasks.
  std::fill(op_emit, TickRow(kWorkerCpuUtil), 0.0);
  double source_emitted = 0.0;
  double sink_arrivals = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double processed = proc_raw_[i] * emit_factor_[i];
    processed_rate_[i] = processed / dt;
    size_t o = static_cast<size_t>(task_op_[i]);
    if (!is_source_[i]) {
      queue_[i] -= processed;
      if (queue_[i] < 0.0) {
        queue_[i] = 0.0;
      }
    } else {
      source_emitted += processed;
    }
    const auto& downs = down_tasks_[i];
    if (!downs.empty()) {
      double out = processed * task_selectivity_[i];
      double share = out / static_cast<double>(downs.size());
      for (TaskId d : downs) {
        enqueue_[static_cast<size_t>(d)] += share;
      }
    }
    if (downs.empty() && !is_source_[i]) {
      sink_arrivals += processed;  // records leaving the pipeline at sinks
    }
    task_true[i] = std::min(true_rate_[i], 1e15);
    if (is_source_[i]) {
      op_emit[o] += processed / dt;  // total records/s emitted by the operator
      op_bp[o] += 1.0 - emit_factor_[i];
    }
    op_in[o] += processed / dt;
    op_out[o] += processed * task_selectivity_[i] / dt;
  }
  for (size_t o = 0; o < op_source_tasks_.size(); ++o) {
    if (op_source_tasks_[o] > 0) {
      op_bp[o] /= op_source_tasks_[o];  // mean blocked share
    }
  }
  for (size_t i = 0; i < n; ++i) {
    queue_[i] = std::min(queue_[i] + enqueue_[i], queue_capacity_[i] + 1.0);
  }

  // --- 5b. Resource usage from the work actually performed ---------------------------------
  for (size_t i = 0; i < n; ++i) {
    size_t o = static_cast<size_t>(task_op_[i]);
    op_cpu[o] += processed_rate_[i] * eff_cpu_cost_[i];
    op_io[o] += processed_rate_[i] * task_io_cost_[i];
    op_net[o] += processed_rate_[i] * task_out_cost_[i];  // full bytes (observable)
  }
  double* worker_cpu_util = TickRow(kWorkerCpuUtil);
  double* worker_io_util = TickRow(kWorkerIoUtil);
  double* worker_net_util = TickRow(kWorkerNetUtil);
  double* worker_cpu_used = TickRow(kWorkerCpuUsed);
  double* worker_io_bps = TickRow(kWorkerIoBps);
  double* worker_net_bps = TickRow(kWorkerNetBps);
  for (WorkerId w = 0; w < num_workers; ++w) {
    const auto& spec = cluster_.worker(w).spec;
    double cpu_used = 0.0;
    double io_used = 0.0;
    double net_used = 0.0;
    for (size_t i : worker_tasks_[static_cast<size_t>(w)]) {
      cpu_used += processed_rate_[i] * eff_cpu_cost_[i];
      io_used += processed_rate_[i] * task_io_cost_[i];
      net_used += processed_rate_[i] * task_net_cost_[i];
    }
    size_t wi = static_cast<size_t>(w);
    double io_bw = eff_io_bw_[wi];
    worker_cpu_util[wi] = spec.cpu_capacity > 0 ? cpu_used / spec.cpu_capacity : 0.0;
    worker_io_util[wi] = io_bw > 0 ? io_used / io_bw : 0.0;
    worker_net_util[wi] = spec.net_bandwidth_bps > 0 ? net_used / spec.net_bandwidth_bps : 0.0;
    worker_cpu_used[wi] = cpu_used;
    worker_io_bps[wi] = io_used;
    worker_net_bps[wi] = net_used;
  }

  // --- 6. Query-level accumulators ---------------------------------------------------------
  double in_flight = 0.0;
  for (size_t i = 0; i < n; ++i) {
    in_flight += queue_[i];
  }
  double emit_rate = source_emitted / dt;
  *TickRow(kQueryThroughput) = emit_rate;
  double bp = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (is_source_[i]) {
      bp += 1.0 - emit_factor_[i];
    }
  }
  *TickRow(kQueryBackpressure) = num_source_tasks_ > 0 ? bp / num_source_tasks_ : 0.0;
  *TickRow(kQueryLatency) =
      in_flight / std::max(emit_rate, std::max(total_target_rate_ * 0.01, 1.0));
  *TickRow(kQuerySinkRate) = sink_arrivals / dt;
  return SameBytes(queue_, queue_at_tick_start_);
}

void FluidSimulator::FlushMetrics() {
  if (pending_ticks_ == 0) {
    return;  // nothing accumulated since the last flush (e.g. double flush)
  }
  const double count = pending_ticks_;
  copyable_row_ticks_ = solved_in_interval_ ? 0 : pending_ticks_;
  solved_in_interval_ = false;
  pending_ticks_ = 0;
  // Backpressure episode tracking: one onset event when the mean source backpressure
  // crosses the threshold, one cleared event when it drops back below.
  {
    double bp = sums_[row_base_[kQueryBackpressure]] / count;
    bool above = bp >= kBackpressureOnsetThreshold;
    if (above && !backpressure_episode_) {
      EmitBackpressureOnset(telemetry_offset_s_ + time_s_, bp);
    } else if (!above && backpressure_episode_) {
      EmitBackpressureCleared(telemetry_offset_s_ + time_s_, bp);
    }
    backpressure_episode_ = above;
  }
  const size_t width = sums_.size();
  const size_t base = AppendFlushRow();
  for (size_t k = 0; k < width; ++k) {
    double mean = sums_[k] / count;
    sums_[k] = 0.0;
    means_[base + k] = mean;
    prefix_[base + k] = (base == 0 ? 0.0 : prefix_[base - width + k]) + mean;
  }
}

size_t FluidSimulator::AppendFlushRow() {
  last_flush_s_ = time_s_;
  const size_t base = means_.size();
  flush_times_.push_back(time_s_);
  means_.resize(base + sums_.size());
  prefix_.resize(base + sums_.size());
  return base;
}

int FluidSimulator::TryReplayInterval(int max_ticks) {
  // Stepping the interval would re-add the tick_ that filled the last row, as many times
  // from zeroed sums_, and divide by the same count: the same doubles as that row.
  const int n = copyable_row_ticks_;
  if (n == 0 || n > max_ticks || pending_ticks_ != 0 || !replaying_ ||
      !InputsMatchReplaySnapshot()) {
    return 0;
  }
  // The interval must reach the flush test after exactly n ticks, counted with Step's own
  // clock additions and test.
  double t = time_s_;
  for (int i = 1; i <= n; ++i) {
    t += kTickS;
    if ((t - last_flush_s_ >= metrics_interval_s_ - kEps) != (i == n)) {
      return 0;
    }
  }
  time_s_ = t;
  ticks_ += static_cast<uint64_t>(n);
  replayed_ticks_ += static_cast<uint64_t>(n);
  ++replayed_flushes_;
  // The copied mean leaves the backpressure episode where the last flush put it.
  const size_t width = sums_.size();
  const size_t base = AppendFlushRow();
  for (size_t k = 0; k < width; ++k) {
    means_[base + k] = means_[base - width + k];
    prefix_[base + k] = prefix_[base - width + k] + means_[base + k];
  }
  return n;
}

MetricsRegistry FluidSimulator::ExportMetrics() const {
  MetricsRegistry out;
  const size_t width = sums_.size();
  for (int r = 0; r < kNumRows; ++r) {
    for (size_t k = 0; k < row_base_[r + 1] - row_base_[r]; ++k) {
      if ((r == kOpEmitRate || r == kOpBackpressure) && op_source_tasks_[k] == 0) {
        continue;
      }
      std::string name = SeriesName(static_cast<Row>(r), k);
      for (size_t f = 0; f < flush_times_.size(); ++f) {
        out.Record(name, flush_times_[f], means_[f * width + row_base_[r] + k]);
      }
    }
  }
  out.GetCounter("sim.0.flushes").Add(flush_times_.size());
  out.GetCounter("sim.0.ticks").Add(ticks_);
  out.GetCounter("sim.0.replayed_ticks").Add(replayed_ticks_);
  out.GetCounter("sim.0.replayed_flushes").Add(replayed_flushes_);
  return out;
}

std::string FluidSimulator::SeriesName(Row r, size_t k) const {
  const RowSpec& spec = kRowSpecs[r];
  int id = static_cast<int>(k);
  switch (spec.scope) {
    case Scope::kTask:
      return TaskMetric(id, spec.metric);
    case Scope::kOperator:
      return OperatorMetric(id, spec.metric);
    case Scope::kWorker:
      return WorkerMetric(id, spec.metric);
    case Scope::kQuery:
      break;
  }
  return std::string("query.") + spec.metric;
}

double FluidSimulator::WindowMean(Row r, size_t k, double from_s, double to_s) const {
  if (k >= row_base_[r + 1] - row_base_[r]) {
    return 0.0;
  }
  // Flush stamps ascend: binary-search the window bounds and answer from the prefix sums.
  auto lo_it = std::lower_bound(flush_times_.begin(), flush_times_.end(), from_s);
  auto hi_it = std::lower_bound(flush_times_.begin(), flush_times_.end(),
                                std::nextafter(to_s, 1e308));
  size_t lo = static_cast<size_t>(lo_it - flush_times_.begin());
  size_t hi = static_cast<size_t>(hi_it - flush_times_.begin());  // one past the last in-window
  if (lo >= hi) {
    return 0.0;
  }
  const size_t width = sums_.size();
  const size_t col = row_base_[r] + k;
  double sum = prefix_[(hi - 1) * width + col] - (lo > 0 ? prefix_[(lo - 1) * width + col] : 0.0);
  return sum / static_cast<double>(hi - lo);
}

void FluidSimulator::RunFor(double seconds) {
  Span span("sim.run_for");
  int steps = static_cast<int>(std::llround(seconds / kTickS));
  if (span.active()) {
    span.AddAttr("seconds", seconds);
    span.AddAttr("ticks", steps);
    span.AddAttr("sim_time_s", time_s_);
  }
  uint64_t replayed_before = replayed_ticks_;
  for (int i = 0; i < steps;) {
    if (int replayed = TryReplayInterval(steps - i); replayed > 0) {
      i += replayed;
    } else {
      Step();
      ++i;
    }
  }
  if (span.active()) {
    span.AddAttr("replayed", replayed_ticks_ - replayed_before);
  }
}

QuerySummary FluidSimulator::RunMeasured(double warmup_s, double measure_s) {
  RunFor(warmup_s);
  double from = time_s_;
  RunFor(measure_s);
  FlushMetrics();
  return Summarize(from, time_s_);
}

QuerySummary FluidSimulator::Summarize(double from_s, double to_s) const {
  QuerySummary s;
  s.throughput = Throughput(from_s, to_s);
  s.backpressure = WindowMean(kQueryBackpressure, 0, from_s, to_s);
  s.latency_s = WindowMean(kQueryLatency, 0, from_s, to_s);
  s.sink_rate = WindowMean(kQuerySinkRate, 0, from_s, to_s);
  for (size_t w = 0; w < static_cast<size_t>(cluster_.num_workers()); ++w) {
    ResourceVector& max_util = s.max_worker_utilization;
    max_util.cpu = std::max(max_util.cpu, WindowMean(kWorkerCpuUtil, w, from_s, to_s));
    max_util.io = std::max(max_util.io, WindowMean(kWorkerIoUtil, w, from_s, to_s));
    max_util.net = std::max(max_util.net, WindowMean(kWorkerNetUtil, w, from_s, to_s));
  }
  return s;
}

double FluidSimulator::Throughput(double from_s, double to_s) const {
  return WindowMean(kQueryThroughput, 0, from_s, to_s);
}

double FluidSimulator::OperatorEmitRate(OperatorId op, double from_s, double to_s) const {
  return WindowMean(kOpEmitRate, static_cast<size_t>(op), from_s, to_s);
}

double FluidSimulator::OperatorBackpressure(OperatorId op, double from_s, double to_s) const {
  return WindowMean(kOpBackpressure, static_cast<size_t>(op), from_s, to_s);
}

double FluidSimulator::OperatorInputRate(OperatorId op, double from_s, double to_s) const {
  return WindowMean(kOpInRate, static_cast<size_t>(op), from_s, to_s);
}

double FluidSimulator::OperatorOutputRate(OperatorId op, double from_s, double to_s) const {
  return WindowMean(kOpOutRate, static_cast<size_t>(op), from_s, to_s);
}

double FluidSimulator::OperatorTrueRatePerTask(OperatorId op, double from_s, double to_s) const {
  if (op < 0 || op >= graph_.num_operators()) {
    return 0.0;
  }
  double sum = 0.0;
  int n = 0;
  for (TaskId t : graph_.TasksOf(op)) {
    sum += WindowMean(kTaskTrueRate, static_cast<size_t>(t), from_s, to_s);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

ResourceVector FluidSimulator::OperatorUsage(OperatorId op, double from_s, double to_s) const {
  size_t o = static_cast<size_t>(op);
  return {.cpu = WindowMean(kOpCpuUsed, o, from_s, to_s),
          .io = WindowMean(kOpIoBps, o, from_s, to_s),
          .net = WindowMean(kOpNetBps, o, from_s, to_s)};
}

ResourceVector FluidSimulator::WorkerUsage(WorkerId w, double from_s, double to_s) const {
  size_t wi = static_cast<size_t>(w);
  return {.cpu = WindowMean(kWorkerCpuUsed, wi, from_s, to_s),
          .io = WindowMean(kWorkerIoBps, wi, from_s, to_s),
          .net = WindowMean(kWorkerNetBps, wi, from_s, to_s)};
}

}  // namespace capsys
