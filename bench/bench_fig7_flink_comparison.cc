// Reproduces Figure 7 (paper §6.2.1): individual query performance under CAPSys vs Flink's
// `default` and `evenly` placement policies, each query deployed in isolation on a
// 4-worker m5d.2xlarge cluster (8 slots per worker). DS2 assigns operator parallelism from
// profiled costs; each policy is run 10 times (CAPS is deterministic; the baselines'
// random task order varies by seed) and throughput / backpressure / latency are summarized
// as box statistics.
//
// Paper reference points: CAPSys reaches the target rate on every query with the lowest
// backpressure and latency and near-zero variance; `default` and `evenly` show large
// variance and miss the target on most queries (up to 6x throughput gap on Q5-aggregate);
// CAPSys reduces backpressure by 84% and latency by 48% on average.
//
// Set CAPSYS_TELEMETRY_DIR to additionally export a telemetry bundle (spans of every
// deploy/search, placement-decision events, and the last run's simulator metrics) there.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/controller/deployment.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/obs/exporters.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

// Target-rate scale factors vs the motivation-study (r5d) rates: the m5d.2xlarge workers
// have ~2x the CPU and disk bandwidth.
constexpr double kRateScale = 2.0;
constexpr int kRuns = 10;

int Main() {
  InitLoggingFromEnv();
  Cluster cluster(4, WorkerSpec::M5d2xlarge(8));
  const char* telemetry_dir = std::getenv("CAPSYS_TELEMETRY_DIR");
  MetricsRegistry last_metrics;
  if (telemetry_dir != nullptr) {
    Tracer::Global().Enable();
    EventLog::Global().Enable();
  }
  std::printf("=== Figure 7: query performance by placement policy (%s) ===\n",
              cluster.ToString().c_str());
  std::printf("10 runs per policy; table shows median [min..max]\n\n");

  PlacementPolicy policies[3] = {PlacementPolicy::kCaps, PlacementPolicy::kFlinkDefault,
                                 PlacementPolicy::kFlinkEvenly};

  for (QuerySpec& q : BuildAllQueries()) {
    q.ScaleRates(kRateScale);
    double target = q.TotalTargetRate();
    std::printf("--- %s (target %.0f rec/s) ---\n", q.graph.name().c_str(), target);
    std::printf("%-10s %-26s %-22s %-20s %-6s\n", "policy", "throughput (rec/s)", "bp (%)",
                "latency (s)", "slots");
    for (PlacementPolicy policy : policies) {
      std::vector<double> thr;
      std::vector<double> bp;
      std::vector<double> lat;
      int slots = 0;
      for (int run = 0; run < kRuns; ++run) {
        DeployOptions options;
        options.policy = policy;
        options.use_ds2_sizing = true;
        options.seed = static_cast<uint64_t>(run) + 1;
        CapsysController controller(cluster, options);
        Deployment d = controller.Deploy(q);
        slots = d.physical.num_tasks();
        FluidSimulator sim(d.physical, cluster, d.placement);
        for (const auto& [op, r] : d.source_rates) {
          sim.SetSourceRate(op, r);
        }
        QuerySummary s = sim.RunMeasured(/*warmup_s=*/60, /*measure_s=*/120);
        thr.push_back(s.throughput);
        bp.push_back(s.backpressure * 100.0);
        lat.push_back(s.latency_s);
        if (telemetry_dir != nullptr) {
          last_metrics = sim.ExportMetrics();
        }
      }
      BoxSummary ts = Summarize(thr);
      BoxSummary bs = Summarize(bp);
      BoxSummary ls = Summarize(lat);
      std::printf("%-10s %8.0f [%6.0f..%6.0f]   %6.1f [%5.1f..%5.1f]   %6.3f [%5.3f..%5.3f] %4d\n",
                  PolicyName(policy), ts.median, ts.min, ts.max, bs.median, bs.min, bs.max,
                  ls.median, ls.min, ls.max, slots);
    }
    std::printf("\n");
  }
  if (telemetry_dir != nullptr) {
    std::string error;
    if (WriteTelemetryBundle(telemetry_dir, &last_metrics, &error)) {
      std::printf("telemetry bundle: %s/ (%zu spans, %zu events)\n", telemetry_dir,
                  Tracer::Global().SpanCount(), EventLog::Global().Count());
    } else {
      std::printf("telemetry bundle FAILED: %s\n", error.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace capsys

int main() { return capsys::Main(); }
