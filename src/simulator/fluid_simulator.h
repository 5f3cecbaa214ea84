// Discrete-time fluid simulator of a placed streaming dataflow.
//
// Substitutes for the paper's Flink-on-EC2 testbed (see DESIGN.md). The engine advances in
// fixed ticks; each tick it (1) solves the per-worker contention allocation (contention.h),
// (2) moves records through bounded per-task input queues, and (3) throttles producers whose
// downstream queues are full — which is exactly how Flink's credit-based backpressure
// manifests at the measurement granularity of the paper (5 s samples).
//
// Reported metrics mirror the paper's: source throughput, backpressure fraction at the
// source, end-to-end latency estimate, per-worker utilization, and the per-task true
// processing rates DS2 consumes. Every metric is flushed at the same instants, so all of them
// share one time axis and live in one table; controllers read them through the typed
// accessors below.
#ifndef SRC_SIMULATOR_FLUID_SIMULATOR_H_
#define SRC_SIMULATOR_FLUID_SIMULATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/dataflow/placement.h"
#include "src/dataflow/rates.h"
#include "src/metrics/metrics.h"
#include "src/simulator/contention.h"

namespace capsys {

// Aggregate measurements over a time window (what Figures 2/3/7/8 plot per run).
struct QuerySummary {
  double throughput = 0.0;       // records/s emitted by all sources, mean over window
  double backpressure = 0.0;     // mean fraction of time sources were blocked, [0, 1]
  double latency_s = 0.0;        // mean end-to-end latency estimate
  double sink_rate = 0.0;        // records/s arriving at sinks
  ResourceVector max_worker_utilization;  // max over workers of mean utilization

  std::string ToString() const;
};

class FluidSimulator {
 public:
  // Calibration every simulation uses (DESIGN.md §5): fixed-step ticks and the
  // contention model's parameters.
  static constexpr double kTickS = 0.1;
  static constexpr ContentionParams kContention{};

  // Metrics are flushed into the table every `metrics_interval_s` (the paper records every
  // 5 s).
  FluidSimulator(const PhysicalGraph& graph, const Cluster& cluster, const Placement& placement,
                 double metrics_interval_s = 5.0);

  // Sets the target generation rate (records/s, aggregate over the operator's tasks) of one
  // source operator. Takes effect at the next tick.
  void SetSourceRate(OperatorId source_op, double records_per_s);
  // Sets the same target rate on every source operator.
  void SetAllSourceRates(double records_per_s);

  // Fault injection: a failed worker stops processing entirely (its tasks' queues freeze
  // and backpressure propagates to the sources, as when a TaskManager dies mid-run).
  void FailWorker(WorkerId w);
  void RestoreWorker(WorkerId w);
  bool IsWorkerFailed(WorkerId w) const { return failed_[static_cast<size_t>(w)]; }

  // Fault injection: a degraded worker processes at `factor` (0 < factor <= 1) of its
  // normal capacity — a transient slowdown/straggler (CPU throttling, noisy neighbour,
  // compaction storm). factor = 1 restores full speed.
  void DegradeWorker(WorkerId w, double factor);
  double WorkerDegradeFactor(WorkerId w) const { return degrade_[static_cast<size_t>(w)]; }

  // Checkpoint traffic: `bps` bytes/s of snapshot upload charged against the worker's disk
  // bandwidth — the tasks placed there see a smaller effective I/O budget while a
  // checkpoint is in flight, so checkpointing contends with compaction exactly as in the
  // paper's §3.3 I/O-contention study. 0 clears the charge.
  void SetWorkerCheckpointIoBps(WorkerId w, double bps);
  void ClearCheckpointIo();

  // Advances the simulation by one tick. A tick that starts from the queues and worker
  // inputs of the last solved tick, when that tick ended where it started, replays its
  // metric values instead of solving again; the result is bit-identical (counted in
  // replayed_ticks()).
  void Step();
  // Advances by round(seconds / kTickS) ticks. Where the last flush interval was all
  // replayed ticks and the next one would replay the same number of them, its flushed row
  // is copied instead of stepping tick by tick; the result is bit-identical (counted in
  // replayed_flushes()).
  void RunFor(double seconds);

  // Offset added to this simulator's local clock when stamping telemetry (structured
  // events): a driver that replaces the runtime mid-run keeps event timestamps on its own
  // global timeline by passing global_time - local_time here.
  void SetTelemetryTimeOffset(double offset_s) { telemetry_offset_s_ = offset_s; }

  // Convenience: runs `warmup_s` unmeasured, then `measure_s`, and summarizes the
  // measurement window.
  QuerySummary RunMeasured(double warmup_s, double measure_s);

  // Every read below is the mean of the flushes stamped in [from_s, to_s], both ends
  // inclusive; an empty window, a read before the first flush and an out-of-range entity
  // read 0.

  // Summarizes the window [from_s, to_s] from recorded metrics.
  QuerySummary Summarize(double from_s, double to_s) const;
  // Exactly Summarize(from_s, to_s).throughput, without reading the other series.
  double Throughput(double from_s, double to_s) const;

  // Mean emitted records/s of one operator's tasks over [from_s, to_s]. For source
  // operators this is the per-query throughput used by the multi-tenant experiment.
  double OperatorEmitRate(OperatorId op, double from_s, double to_s) const;
  // Mean backpressure of one source operator over [from_s, to_s].
  double OperatorBackpressure(OperatorId op, double from_s, double to_s) const;
  // Mean records/s processed (input) and emitted (output) by an operator over the window.
  double OperatorInputRate(OperatorId op, double from_s, double to_s) const;
  double OperatorOutputRate(OperatorId op, double from_s, double to_s) const;
  // Mean per-task true processing rate (capacity under current contention) of an
  // operator's tasks over the window — the metric DS2 consumes.
  double OperatorTrueRatePerTask(OperatorId op, double from_s, double to_s) const;
  // Mean resource usage of an operator's tasks over the window: CPU-seconds/s, state bytes/s
  // and emitted bytes/s (online profiling).
  ResourceVector OperatorUsage(OperatorId op, double from_s, double to_s) const;
  // Mean absolute usage of a worker over the window: CPU-seconds/s, disk bytes/s and
  // cross-worker bytes/s (what the cost profiler normalizes by rate).
  ResourceVector WorkerUsage(WorkerId w, double from_s, double to_s) const;

  // Every recorded series under its "scope.id.metric" name, plus the sim.0.flushes,
  // sim.0.ticks, sim.0.replayed_ticks and sim.0.replayed_flushes counters: for telemetry
  // bundles and tests. The registry is built on each call; bind it to a local before
  // reading its series.
  MetricsRegistry ExportMetrics() const;
  // Ticks that replayed a fixed point instead of solving (see Step).
  uint64_t replayed_ticks() const { return replayed_ticks_; }
  // Flushes whose row RunFor copied from the previous one (see RunFor); their ticks are
  // counted in replayed_ticks() too.
  uint64_t replayed_flushes() const { return replayed_flushes_; }

  double time_s() const { return time_s_; }
  const PhysicalGraph& graph() const { return graph_; }
  const Cluster& cluster() const { return cluster_; }
  const Placement& placement() const { return placement_; }

  // Current queue length (records) of a task; exposed for tests.
  double QueueLength(TaskId t) const { return queue_[static_cast<size_t>(t)]; }

 private:
  void RebuildStatics();
  void FlushMetrics();
  // Appends a flush stamped time_s_ to the table and returns the offset of its row in
  // means_ and prefix_; the caller fills the row.
  size_t AppendFlushRow();
  // Replays the whole flush interval that starts now by copying the last flushed row, when
  // that is bit-identical to stepping it and it fits in `max_ticks` ticks. Returns the
  // ticks it advanced: the row's tick count, or 0 when the interval must be stepped.
  int TryReplayInterval(int max_ticks);

  PhysicalGraph graph_;
  Cluster cluster_;
  Placement placement_;
  double metrics_interval_s_;

  double time_s_ = 0.0;
  std::map<OperatorId, double> source_rates_;

  // Per-task dynamic state.
  std::vector<double> queue_;           // records waiting
  std::vector<double> queue_capacity_;  // records
  std::vector<uint8_t> is_source_;      // byte-sized: read in every per-task tick loop
  std::vector<bool> failed_;            // per worker
  std::vector<double> degrade_;         // per worker capacity factor, 1.0 = healthy
  std::vector<double> checkpoint_io_bps_;  // per worker snapshot-upload traffic

  // Per-task static routing info.
  std::vector<std::vector<TaskId>> down_tasks_;  // distinct downstream tasks (via channels)
  std::vector<double> remote_fraction_;          // |Dr|/|D| under placement_
  std::vector<std::vector<size_t>> worker_tasks_;  // task indices per worker

  // Static per-task costs, rebuilt by RebuildStatics(). Step() reads these arrays instead
  // of chasing graph_.logical().op(...) records every tick.
  std::vector<OperatorId> task_op_;
  std::vector<double> task_selectivity_;
  std::vector<double> task_io_cost_;    // state bytes per processed record
  std::vector<double> task_net_cost_;   // cross-worker bytes per record under placement_
  std::vector<double> task_out_cost_;   // full emitted bytes per record
  std::vector<double> source_task_rate_;  // per-task target rate; 0 for non-source tasks
  double total_target_rate_ = 0.0;        // sum of source_rates_
  int num_source_tasks_ = 0;
  std::vector<int> op_source_tasks_;  // number of source tasks per op (0 for non-sources)

  // Per-worker solver arenas: loads_ carries the static TaskLoad fields (only desired_rate
  // changes per tick); alloc_/scratch_ are reused by SolveWorkerInPlace. Together with the
  // per-tick scratch below, a warmed Step() performs no heap allocation.
  std::vector<std::vector<TaskLoad>> worker_loads_;
  std::vector<WorkerAllocation> worker_alloc_;
  std::vector<WorkerScratch> worker_scratch_;

  // Per-tick scratch, sized once in RebuildStatics().
  std::vector<double> desired_;
  std::vector<double> rate_cap_;       // achievable processing rate this tick
  std::vector<double> true_rate_;      // capacity under current contention
  std::vector<double> eff_cpu_cost_;   // post-GC CPU-seconds per record
  std::vector<double> eff_io_bw_;      // per worker
  std::vector<double> proc_raw_;
  std::vector<double> claim_total_;
  std::vector<double> accept_;
  std::vector<double> emit_factor_;
  std::vector<double> enqueue_;
  std::vector<double> processed_rate_;

  // Metrics in one flat table of columns. A row holds one column per task, operator or
  // worker, or a single query-level one; row r starts at column row_base_[r]. Every column
  // gets exactly one value per tick, which is what lets a fixed-point tick be replayed bit
  // for bit (see Step).
  enum Row : uint8_t {
    kTaskTrueRate,
    kOpEmitRate,  // exported only for source operators, like kOpBackpressure
    kOpBackpressure,
    kOpInRate,   // records/s processed by the operator's tasks
    kOpOutRate,  // records/s emitted by the operator's tasks
    kOpCpuUsed,  // per-operator resource usage (CPU-seconds/s, bytes/s): online profiling
    kOpIoBps,
    kOpNetBps,
    kWorkerCpuUtil,
    kWorkerIoUtil,
    kWorkerNetUtil,
    kWorkerCpuUsed,  // absolute usage, what the cost profiler normalizes by rate
    kWorkerIoBps,
    kWorkerNetBps,
    kQueryThroughput,
    kQueryBackpressure,
    kQueryLatency,
    kQuerySinkRate,
    kNumRows,
  };
  // This tick's value of row `r` for every entity, written by a solved tick.
  double* TickRow(Row r) { return tick_.data() + row_base_[r]; }
  std::string SeriesName(Row r, size_t k) const;
  // Mean of column k of row r over the flushes stamped in [from_s, to_s]; 0 for an empty
  // window and an out-of-range `k`.
  double WindowMean(Row r, size_t k, double from_s, double to_s) const;
  // One tick with the full contention solve; fills tick_ and returns true when the tick
  // ended with queue_ byte-identical to how it started (a fixed point).
  bool SolveTick();
  bool InputsMatchReplaySnapshot() const;

  size_t row_base_[kNumRows + 1] = {};
  std::vector<double> tick_;   // one value per column, from the last solved tick
  std::vector<double> sums_;   // per column: the sum of its tick values since the last flush
  int pending_ticks_ = 0;      // ticks added to sums_ since the last flush
  // The shared time axis and the flushed table, flush-major: flush f's mean of column c is
  // means_[f * row_base_[kNumRows] + c], and prefix_ holds each column's running sum of
  // means_ in the same layout, so a window mean is one difference.
  std::vector<double> flush_times_;
  std::vector<double> means_;
  std::vector<double> prefix_;
  uint64_t ticks_ = 0;
  uint64_t replayed_ticks_ = 0;
  uint64_t replayed_flushes_ = 0;
  // Whether a tick since the last flush ran SolveTick, and the tick count of the last
  // flushed row when every one of its ticks re-added the tick_ still held (else 0): the
  // rows TryReplayInterval may copy.
  bool solved_in_interval_ = false;
  int copyable_row_ticks_ = 0;

  // Steady-state replay: after a solved tick that ended where it started, later ticks
  // re-add tick_ until RebuildStatics runs or a worker input differs from its snapshot.
  bool replaying_ = false;
  std::vector<double> queue_at_tick_start_;
  std::vector<bool> failed_snapshot_;
  std::vector<double> degrade_snapshot_;
  std::vector<double> checkpoint_io_snapshot_;
  double last_flush_s_ = 0.0;
  double telemetry_offset_s_ = 0.0;
  bool backpressure_episode_ = false;  // currently above the onset threshold
};

}  // namespace capsys

#endif  // SRC_SIMULATOR_FLUID_SIMULATOR_H_
