// Command-line entry point of the repository benchmark.
//
//   capsys_perfbench --workload <service_mix|deploy_tight|chaos_failover> --seed <n>
//                    --seconds <s> --trace <0|1> [--commit <sha>]
//
// Prints the environment, a human-readable account of the run, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
// the end-to-end metrics, measured with tracing off; with --trace 1 they are the per-layer
// metrics of a traced window. Exits non-zero on a correctness violation.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/common/logging.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"latency_ms", "ms"},  {"ops_per_s", "1/s"}, {"throughput_ratio", "ratio"},
      {"peak_rss_mb", "MB"}, {"setup_s", "s"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"decision_p50_ms", "ms"},
      {"decision_p95_ms", "ms"},
      {"deploy_p50_ms", "ms"},
      {"deploy_p95_ms", "ms"},
      {"chaos_run_s", "s"},
      {"chaos_run_p95_s", "s"},
      {"caps.autotune.ms_per_tune", "ms"},
      {"caps.autotune.probes_per_tune", "count"},
      {"caps.autotune.probe_budget_hit_share", "ratio"},
      {"caps.autotune.infeasible_probe_share", "ratio"},
      {"caps.autotune.share_of_plan", "ratio"},
      {"caps.search.ms_per_call", "ms"},
      {"caps.search.nodes_per_s", "1/s"},
      {"caps.search.timed_out_share", "ratio"},
      {"scheduler.queue_wait_p50_ms", "ms"},
      {"scheduler.planner_busy_share", "ratio"},
      {"scheduler.plan_p50_ms", "ms"},
      {"scheduler.plan_attempts_per_job", "count"},
      {"scheduler.commit_conflicts_per_job", "count"},
      {"scheduler.stale_commit_share", "ratio"},
      {"scheduler.cache_hit_ratio", "ratio"},
      {"scheduler.queued_share", "ratio"},
      {"scheduler.rejected_share", "ratio"},
      {"scheduler.downscales", "count"},
      {"recovery_p50_ms", "ms"},
      {"plan_cost_mean", "ratio"},
      {"generator_lag_p95_ms", "ms"},
      {"controller.profile_p50_ms", "ms"},
      {"controller.ds2_p50_ms", "ms"},
      {"controller.place_p50_ms", "ms"},
      {"plan_backpressure_pct", "%"},
      {"controller.plan_recovery_p50_ms", "ms"},
      {"chaos.recovery_attempt_p50_ms", "ms"},
      {"simulator.ns_per_tick", "ns"},
      {"simulator.share_of_run", "ratio"},
      {"chaos.reconfigurations_per_run", "count"},
      {"chaos.replan_churn_retries", "count"},
      {"chaos.false_positives", "count"},
      {"checkpoint.completed_share", "ratio"},
      {"mttr_s", "sim_s"},
      {"throughput_loss_pct", "%"},
      {"obs.tracing_overhead_pct", "%"},
      {"host.speed_probe_ms", "ms"},
  };
  return kMetrics;
}

namespace {
// Keeps the probe's result alive, so the compiler cannot drop its work.
volatile double speed_probe_sink = 0.0;
}  // namespace

double SpeedProbeMs() {
  // Integer, branch and L1 work on a 32 KB table, then a chain of dependent
  // floating-point multiply-adds: the kinds of work the search and the simulator do.
  static std::vector<double> table(4096);
  auto t0 = std::chrono::steady_clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0.0;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double& slot = table[x & 4095];
    slot = slot * 0.5 + static_cast<double>(x >> 40) * 1e-6;
    acc = slot > acc ? slot * 0.9 : acc + 1e-3;
  }
  double a = 1.0;
  double b = 0.5;
  double c = 0.25;
  for (int i = 0; i < 100000; ++i) {
    a = a * 0.999999 + b;
    b = b * 0.999998 + c * 1e-9;
    c = c * 1.000001 - a * 1e-12;
  }
  speed_probe_sink = acc + a + b + c;
  return SecondsSince(t0) * 1e3;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <service_mix|deploy_tight|chaos_failover> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <sha>]\n",
               argv0);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// The environment a result was taken in; printed next to every result so that two result
// sets from different machines or builds are not compared silently.
std::string EnvironmentJson(const std::string& commit) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"hardware_concurrency\": %u, \"build_type\": \"%s\", "
                "\"capsys_native\": %s, \"compiler\": \"%s\", \"commit\": \"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE ? "true" : "false",
                JsonEscape(__VERSION__).c_str(), JsonEscape(commit).c_str());
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  capsys::InitLoggingFromEnv();
  RunConfig config;
  std::string commit = "unknown";
  std::set<std::string> seen;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      if (!config.trace && std::strcmp(value, "0") != 0) {
        return Usage(argv[0]);
      }
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(argv[0]);
    }
    seen.insert(flag);
  }
  if (argc % 2 != 1 || !seen.count("--workload") || !seen.count("--seed") ||
      !seen.count("--seconds") || !seen.count("--trace") || !(config.seconds > 0.0) ||
      config.seconds > 120.0) {
    return Usage(argv[0]);
  }

  std::printf("env: %s\n", EnvironmentJson(commit).c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  Report report;
  if (config.workload == "service_mix") {
    RunServiceMix(config, &report);
  } else if (config.workload == "deploy_tight") {
    RunDeployTight(config, &report);
  } else if (config.workload == "chaos_failover") {
    RunChaosFailover(config, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", config.workload.c_str());
    return 2;
  }

  // Every run reports the full metric list of its mode; layers a workload does not
  // exercise read 0. An end-to-end metric a workload failed to report is a benchmark bug.
  std::map<std::string, Metric> by_name;
  for (const Metric& m : report.metrics) {
    by_name[m.name] = m;
  }
  const auto& specs = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics_json;
  for (const MetricSpec& spec : specs) {
    auto it = by_name.find(spec.name);
    double value = 0.0;
    if (it != by_name.end()) {
      value = it->second.value;
    } else if (!config.trace) {
      std::fprintf(stderr, "bug: workload did not report %s\n", spec.name);
      return 3;
    }
    if (!std::isfinite(value)) {
      report.Violation(std::string("non-finite metric ") + spec.name);
      value = 0.0;
    }
    std::printf("metric %-40s %16.6f %s\n", spec.name, value, spec.unit);
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics_json += entry;
  }
  for (const std::string& v : report.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  bool correct = report.violations.empty() && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
