// chaos_failover: a closed loop of RunChaosExperiment runs. Each run deploys a small
// DS2-sized query (Q1-sliding or Q5-aggregate) with CAPS, checkpointing and exactly-once
// delivery on six r5d workers, and replays a seeded FaultSchedule::Random over 40 minutes of
// simulated time. The simulator, checkpoint model, failure detector and recovery planning
// carry this workload while auto-tune does little, so it is the workload on which
// auto-tune and cache work should change nothing and simulator work should show.
#include <cstdint>
#include <cstdio>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/rollup.h"
#include "src/common/rng.h"
#include "src/controller/chaos_experiments.h"
#include "src/nexmark/queries.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using capsys::QuerySpec;

constexpr int kWorkers = 6;
constexpr double kRateScale = 0.5;
constexpr double kRunS = 2400.0;
constexpr int kFaults = 11;
// Faults start after the first checkpoints have completed, so exactly-once recovery always
// has a checkpoint to restore from.
constexpr double kFirstFaultS = 120.0;

capsys::Cluster ChaosCluster() {
  return capsys::Cluster(kWorkers, capsys::WorkerSpec::R5dXlarge(4));
}

// What the benchmark keeps of one chaos run. The full ChaosRun also carries its timeline
// and telemetry; keeping those for every run would make peak memory grow with the run
// count, and so with machine speed.
struct Run {
  size_t query = 0;
  double wall_ms = 0.0;
  double delivered = 0.0;  // share of the nominal target input the run delivered
  double mttr_s = -1.0;
  int reconfigurations = 0;
  int replan_churn_retries = 0;
  int false_positives = 0;
  int checkpoints_completed = 0;
  int checkpoints_triggered = 0;
};

Run ChaosOnce(const QuerySpec& query, uint64_t seed, Report* report) {
  capsys::FaultSchedule::RandomOptions faults;
  faults.num_faults = kFaults;
  faults.min_time_s = kFirstFaultS;
  faults.horizon_s = kRunS * 0.9;
  capsys::FaultSchedule schedule = capsys::FaultSchedule::Random(kWorkers, faults, seed);
  capsys::ChaosExperimentOptions options;
  options.policy = capsys::PlacementPolicy::kCaps;
  options.run_s = kRunS;
  options.use_checkpointing = true;
  options.exactly_once = true;
  options.search_threads = 1;
  options.seed = seed;
  auto t0 = std::chrono::steady_clock::now();
  capsys::ChaosRun result = capsys::RunChaosExperiment(query, ChaosCluster(), schedule, options);
  Run run;
  run.wall_ms = SecondsSince(t0) * 1e3;
  if (result.lost_records != 0.0 || result.duplicate_records != 0.0) {
    report->Violation("exactly-once chaos run (seed " + std::to_string(seed) + ") lost " +
                      std::to_string(result.lost_records) + " and duplicated " +
                      std::to_string(result.duplicate_records) + " records");
  }
  run.delivered = 1.0 - result.throughput_loss / (query.TotalTargetRate() * kRunS);
  run.mttr_s = result.mttr_s;
  run.reconfigurations = result.reconfigurations;
  run.replan_churn_retries = result.replan_churn_retries;
  run.false_positives = result.false_positives;
  run.checkpoints_completed = result.checkpoints_completed;
  run.checkpoints_triggered = result.checkpoints_triggered;
  return run;
}

double Delivered(const Run& r) { return r.delivered; }

struct Window {
  std::vector<Run> runs;
  std::vector<double> probe_ms;  // the core-speed probe, after each run
  double wall_s = 0.0;
};

// Runs until `seconds` have passed or `max_runs` are done, alternating the two queries.
// Every run draws its own fault schedule from the seed.
Window RunWindow(const std::vector<QuerySpec>& queries, uint64_t seed, double seconds,
                 size_t max_runs, Report* report) {
  capsys::Rng rng(seed);
  Window win;
  auto start = std::chrono::steady_clock::now();
  while (win.runs.size() < max_runs && SecondsSince(start) < seconds) {
    size_t q = win.runs.size() % queries.size();
    win.runs.push_back(ChaosOnce(queries[q], rng.NextU64(), report));
    win.runs.back().query = q;
    win.probe_ms.push_back(SpeedProbeMs());
  }
  win.wall_s = SecondsSince(start);
  return win;
}

template <typename F>
std::vector<double> Collect(const Window& w, F f) {
  std::vector<double> out;
  for (const Run& r : w.runs) {
    out.push_back(f(r));
  }
  return out;
}

std::vector<double> Mttrs(const Window& w) {
  std::vector<double> out;
  for (const Run& r : w.runs) {
    if (r.mttr_s >= 0.0) {
      out.push_back(r.mttr_s);
    }
  }
  return out;
}

std::vector<double> WallMs(const Window& w) {
  return Collect(w, [](const Run& r) { return r.wall_ms; });
}

// Run wall times by query: the classes of the typical run latency.
std::vector<std::vector<double>> WallMsByQuery(const Window& w, size_t num_queries) {
  std::vector<std::vector<double>> by_query(num_queries);
  for (const Run& r : w.runs) {
    by_query[r.query].push_back(r.wall_ms);
  }
  return by_query;
}

double LossPct(const Window& w) {
  return (1.0 - Mean(Collect(w, Delivered))) * 100.0;
}

void PrintWindow(const Window& w, size_t num_queries) {
  std::vector<double> wall = WallMs(w);
  std::printf("chaos_failover: %zu runs of %.0f simulated s in %.3f s\n", w.runs.size(), kRunS,
              w.wall_s);
  std::printf("  run_typical_ms=%.3f runs_per_s=%.4f (median block of %zu) "
              "speed_probe_ms=%.4f\n",
              TypicalLatency(WallMsByQuery(w, num_queries)), BlockRate(wall, num_queries),
              num_queries, Percentile(w.probe_ms, 50.0));
  std::printf("  run_p50_ms by query:");
  for (const auto& samples : WallMsByQuery(w, num_queries)) {
    std::printf(" %.3f", Percentile(samples, 50.0));
  }
  std::printf("\n");
  std::printf("  chaos_run_s=%.4f (mean %.4f, p95 %.4f, n=%zu) mttr_s=%.2f (n=%zu) "
              "throughput_loss_pct=%.3f\n",
              Percentile(wall, 50) / 1e3, Mean(wall) / 1e3, Percentile(wall, 95) / 1e3,
              wall.size(),
              Percentile(Mttrs(w), 50), Mttrs(w).size(), LossPct(w));
}

}  // namespace

void RunChaosFailover(const RunConfig& config, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> setup_probe_ms;
  std::vector<QuerySpec> queries;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    queries = {capsys::BuildQ1Sliding(), capsys::BuildQ5Aggregate()};
    for (auto& q : queries) {
      q.ScaleRates(kRateScale);
    }
    ChaosOnce(queries.front(), /*seed=*/0, report);
    setup_s.push_back(SecondsSince(t0));
    setup_probe_ms.push_back(SpeedProbeMs());
  }
  const double window_s = config.trace ? config.seconds / 2.0 : config.seconds;

  Window base = RunWindow(queries, config.seed, window_s, SIZE_MAX, report);
  PrintWindow(base, queries.size());
  report->attempted += base.runs.size();
  if (!config.trace) {
    const double scale = SpeedScale(base.probe_ms);
    report->Add("latency_ms", TypicalLatency(WallMsByQuery(base, queries.size())) * scale,
                "ms");
    report->Add("ops_per_s", BlockRate(WallMs(base), queries.size()) / scale, "1/s");
    report->Add("throughput_ratio", Mean(Collect(base, Delivered)), "ratio");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("setup_s", Percentile(setup_s, 50.0) * SpeedScale(setup_probe_ms), "s");
    return;
  }

  // Traced window: the same runs again, with the tracer on.
  capsys::Tracer::Global().Reset();
  capsys::Tracer::Global().Enable();
  Window traced = RunWindow(queries, config.seed, 1e9, base.runs.size(), report);
  capsys::Tracer::Global().Disable();
  Rollup rollup(capsys::Tracer::Global().Snapshot());
  capsys::Tracer::Global().Reset();
  PrintWindow(traced, queries.size());
  std::printf("%s", rollup.ToString().c_str());
  report->attempted += traced.runs.size();

  double completed = 0.0;
  double triggered = 0.0;
  for (const Run& r : traced.runs) {
    completed += r.checkpoints_completed;
    triggered += r.checkpoints_triggered;
  }
  AddCapsMetrics(rollup, capsys::DeployOptions{}.autotune.probe_timeout_s,
                 rollup.Get("chaos.run").total_ms, report);
  AddSimulatorMetrics(rollup, rollup.Get("chaos.run").total_ms, report);
  report->Add("controller.profile_p50_ms",
              Percentile(rollup.Get("controller.profile").durations_ms, 50.0), "ms");
  report->Add("controller.ds2_p50_ms",
              Percentile(rollup.Get("controller.ds2_sizing").durations_ms, 50.0), "ms");
  report->Add("controller.place_p50_ms",
              Percentile(rollup.Get("controller.place").durations_ms, 50.0), "ms");
  report->Add("controller.plan_recovery_p50_ms",
              Percentile(rollup.Get("controller.plan_recovery").durations_ms, 50.0), "ms");
  report->Add("chaos.recovery_attempt_p50_ms",
              Percentile(rollup.Get("chaos.recovery_attempt").durations_ms, 50.0), "ms");
  report->Add("chaos.reconfigurations_per_run",
              Mean(Collect(traced, [](const Run& r) { return 1.0 * r.reconfigurations; })),
              "count");
  report->Add("chaos.replan_churn_retries",
              Mean(Collect(traced,
                           [](const Run& r) { return 1.0 * r.replan_churn_retries; })),
              "count");
  report->Add("chaos.false_positives",
              Mean(Collect(traced, [](const Run& r) { return 1.0 * r.false_positives; })),
              "count");
  report->Add("checkpoint.completed_share", Share(completed, triggered), "ratio");
  report->Add("chaos_run_s", Percentile(WallMs(traced), 50.0) / 1e3, "s");
  report->Add("chaos_run_p95_s", Percentile(WallMs(traced), 95.0) / 1e3, "s");
  report->Add("mttr_s", Percentile(Mttrs(traced), 50.0), "sim_s");
  report->Add("throughput_loss_pct", LossPct(traced), "%");
  report->Add("obs.tracing_overhead_pct", OverheadPct(traced.wall_s, base.wall_s), "%");
  report->Add("host.speed_probe_ms", Percentile(traced.probe_ms, 50.0), "ms");
}

}  // namespace perfbench
