// deploy_tight: a closed loop with one caller. Each operation runs
// CapsysController::Deploy (CAPS placement, DS2 sizing) on one NEXMark query at a seeded
// rate scale, on a cluster small enough that the DS2-sized plan is tight, and then
// simulates the plan over a fixed window. This is the single-threaded baseline of the
// controller path (profile, DS2, auto-tune, search) and the regime where placement quality
// shows up in throughput, so a faster auto-tune cannot silently buy worse plans.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/rollup.h"
#include "src/common/rng.h"
#include "src/controller/deployment.h"
#include "src/nexmark/queries.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using capsys::QuerySpec;

constexpr int kWorkers = 8;
constexpr int kSlotsPerWorker = 8;
// Rate scales relative to the queries' motivation-study rates. Across this range DS2 sizes
// every query to at most 44 of the 64 slots, and CAPS plans of Q1 and Q4 fall short of
// the target rate from about 5.5 on.
constexpr double kScaleMin = 4.8;
constexpr double kScaleMax = 5.8;
// Set-up deploys every query once at this scale, where no plan is tight.
constexpr double kWarmScale = 4.0;
constexpr double kWarmupS = 30.0;
constexpr double kMeasureS = 60.0;

capsys::Cluster DeployCluster() {
  return capsys::Cluster(kWorkers, capsys::WorkerSpec::M5d2xlarge(kSlotsPerWorker));
}

capsys::DeployOptions Options() {
  capsys::DeployOptions options;
  options.policy = capsys::PlacementPolicy::kCaps;
  options.use_ds2_sizing = true;
  options.search_threads = 1;
  return options;
}

struct Op {
  size_t query = 0;
  double deploy_ms = 0.0;
  double wall_ms = 0.0;  // Deploy, the placement check and the simulation
  double throughput_ratio = 0.0;
  double backpressure = 0.0;
  double plan_cost = 0.0;
};

// Deploys `query` at `scale`, checks the placement and simulates it.
Op DeployOnce(const QuerySpec& base, double scale, const capsys::Cluster& cluster,
              Report* report) {
  Op op;
  QuerySpec q = base;
  q.ScaleRates(scale);
  auto t0 = std::chrono::steady_clock::now();
  capsys::CapsysController controller(cluster, Options());
  capsys::Deployment d = controller.Deploy(q);
  op.deploy_ms = SecondsSince(t0) * 1e3;

  std::vector<int> per_worker(static_cast<size_t>(cluster.num_workers()), 0);
  bool valid = d.placement.num_tasks() == d.physical.num_tasks();
  for (capsys::TaskId t = 0; valid && t < d.placement.num_tasks(); ++t) {
    capsys::WorkerId w = d.placement.WorkerOf(t);
    valid = w >= 0 && w < cluster.num_workers() &&
            ++per_worker[static_cast<size_t>(w)] <= cluster.worker(w).spec.slots;
  }
  if (!valid) {
    report->Violation("invalid placement for " + q.graph.name());
    return op;
  }
  capsys::FluidSimulator sim(d.physical, cluster, d.placement);
  for (const auto& [source, rate] : d.source_rates) {
    sim.SetSourceRate(source, rate);
  }
  capsys::QuerySummary s = sim.RunMeasured(kWarmupS, kMeasureS);
  op.throughput_ratio = s.throughput / q.TotalTargetRate();
  op.backpressure = s.backpressure;
  op.plan_cost = std::max({d.plan_cost.cpu, d.plan_cost.io, d.plan_cost.net});
  return op;
}

struct Window {
  std::vector<Op> ops;
  std::vector<double> probe_ms;  // the core-speed probe, after each operation
  double wall_s = 0.0;
};

// Runs operations until `seconds` have passed or `max_ops` are done. Operation i deploys
// query i mod 6, so every window sees the same query mix. Each query's successive rate
// scales form a golden-ratio sequence from a seeded start, which covers the scale range
// evenly in any window: deploy time grows steeply with the scale, and independent draws
// would let a few high scales decide a window's latency.
Window RunWindow(const std::vector<QuerySpec>& queries, uint64_t seed, double seconds,
                 size_t max_ops, Report* report) {
  constexpr double kGolden = 0.6180339887498949;
  capsys::Rng rng(seed);
  std::vector<double> phase(queries.size());
  for (double& p : phase) {
    p = rng.UniformDouble();
  }
  capsys::Cluster cluster = DeployCluster();
  Window win;
  auto start = std::chrono::steady_clock::now();
  while (win.ops.size() < max_ops && SecondsSince(start) < seconds) {
    size_t q = win.ops.size() % queries.size();
    double visit = static_cast<double>(win.ops.size() / queries.size());
    double u = phase[q] + visit * kGolden;
    double scale = kScaleMin + (kScaleMax - kScaleMin) * (u - std::floor(u));
    auto t0 = std::chrono::steady_clock::now();
    Op op = DeployOnce(queries[q], scale, cluster, report);
    op.query = q;
    op.wall_ms = SecondsSince(t0) * 1e3;
    win.ops.push_back(op);
    win.probe_ms.push_back(SpeedProbeMs());
  }
  win.wall_s = SecondsSince(start);
  return win;
}

std::vector<double> Field(const Window& w, double Op::*field) {
  std::vector<double> out;
  for (const Op& op : w.ops) {
    out.push_back(op.*field);
  }
  return out;
}

// Deploy times by query: the classes of the typical deploy latency.
std::vector<std::vector<double>> DeployMsByQuery(const Window& w, size_t num_queries) {
  std::vector<std::vector<double>> by_query(num_queries);
  for (const Op& op : w.ops) {
    by_query[op.query].push_back(op.deploy_ms);
  }
  return by_query;
}

void PrintWindow(const Window& w, size_t num_queries) {
  std::vector<double> deploy = Field(w, &Op::deploy_ms);
  std::printf("deploy_tight: %zu deploys in %.3f s\n", w.ops.size(), w.wall_s);
  std::printf("  deploy_typical_ms=%.3f deploys_per_s=%.4f (median sweep of %zu) "
              "speed_probe_ms=%.4f\n",
              TypicalLatency(DeployMsByQuery(w, num_queries)),
              BlockRate(Field(w, &Op::wall_ms), num_queries), num_queries,
              Percentile(w.probe_ms, 50.0));
  std::printf("  deploy_p50_ms by query:");
  for (const auto& samples : DeployMsByQuery(w, num_queries)) {
    std::printf(" %.3f", Percentile(samples, 50.0));
  }
  std::printf("\n");
  std::printf("  deploy_mean_ms=%.3f deploy_p50_ms=%.3f deploy_p95_ms=%.3f (n=%zu)\n",
              Mean(deploy), Percentile(deploy, 50), Percentile(deploy, 95), deploy.size());
  std::printf("  plan_throughput_ratio=%.4f plan_backpressure_pct=%.3f plan_cost_mean=%.4f\n",
              Mean(Field(w, &Op::throughput_ratio)), Mean(Field(w, &Op::backpressure)) * 100,
              Mean(Field(w, &Op::plan_cost)));
}

}  // namespace

void RunDeployTight(const RunConfig& config, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> setup_probe_ms;
  std::vector<QuerySpec> queries;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    queries = capsys::BuildAllQueries();
    for (const QuerySpec& q : queries) {
      DeployOnce(q, kWarmScale, DeployCluster(), report);
    }
    setup_s.push_back(SecondsSince(t0));
    setup_probe_ms.push_back(SpeedProbeMs());
  }
  const double window_s = config.trace ? config.seconds / 2.0 : config.seconds;

  Window base = RunWindow(queries, config.seed, window_s, SIZE_MAX, report);
  PrintWindow(base, queries.size());
  report->attempted += base.ops.size();
  if (!config.trace) {
    const double scale = SpeedScale(base.probe_ms);
    report->Add("latency_ms", TypicalLatency(DeployMsByQuery(base, queries.size())) * scale,
                "ms");
    report->Add("ops_per_s", BlockRate(Field(base, &Op::wall_ms), queries.size()) / scale,
                "1/s");
    report->Add("throughput_ratio", Mean(Field(base, &Op::throughput_ratio)), "ratio");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Add("setup_s", Percentile(setup_s, 50.0) * SpeedScale(setup_probe_ms), "s");
    return;
  }

  // Traced window: the same operations again, with the tracer on.
  capsys::Tracer::Global().Reset();
  capsys::Tracer::Global().Enable();
  Window traced = RunWindow(queries, config.seed, 1e9, base.ops.size(), report);
  capsys::Tracer::Global().Disable();
  Rollup rollup(capsys::Tracer::Global().Snapshot());
  capsys::Tracer::Global().Reset();
  PrintWindow(traced, queries.size());
  std::printf("%s", rollup.ToString().c_str());
  report->attempted += traced.ops.size();

  AddCapsMetrics(rollup, Options().autotune.probe_timeout_s,
                 rollup.Get("controller.deploy").total_ms, report);
  AddSimulatorMetrics(rollup, traced.wall_s * 1e3, report);
  report->Add("deploy_p50_ms", Percentile(Field(traced, &Op::deploy_ms), 50.0), "ms");
  report->Add("deploy_p95_ms", Percentile(Field(traced, &Op::deploy_ms), 95.0), "ms");
  report->Add("controller.profile_p50_ms",
              Percentile(rollup.Get("controller.profile").durations_ms, 50.0), "ms");
  report->Add("controller.ds2_p50_ms",
              Percentile(rollup.Get("controller.ds2_sizing").durations_ms, 50.0), "ms");
  report->Add("controller.place_p50_ms",
              Percentile(rollup.Get("controller.place").durations_ms, 50.0), "ms");
  report->Add("plan_backpressure_pct", Mean(Field(traced, &Op::backpressure)) * 100.0, "%");
  report->Add("plan_cost_mean", Mean(Field(traced, &Op::plan_cost)), "ratio");
  report->Add("obs.tracing_overhead_pct", OverheadPct(traced.wall_s, base.wall_s), "%");
  report->Add("host.speed_probe_ms", Percentile(traced.probe_ms, 50.0), "ms");
}

}  // namespace perfbench
