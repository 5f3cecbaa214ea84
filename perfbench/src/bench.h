// Shared types of the repository benchmark (see perfbench/NOTES.md).
//
// A workload runs one timed window against the public CAPSys APIs and fills a Report: the
// operations it attempted and how many failed, the correctness violations it saw, and its
// metrics. The end-to-end metrics come from an untraced window. The per-layer metrics come
// from a traced window that replays the inputs of an untraced one.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Each workload sets up this many times and reports the median set-up time, so that work
// moved into set-up shows and one slow set-up on a busy host does not.
constexpr int kSetupRepeats = 5;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Violation(const std::string& what) { violations.push_back(what); }
};

// Names and units of the metrics every workload reports. A workload that does not exercise
// a layer reports 0 for that layer's metrics.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Seconds since `start` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Linear-interpolated percentile (q in [0, 100]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Mean of the largest `share` of the sample, at least one value; 0 for an empty sample.
// Where a percentile would sit in the gap between two modes and jump as samples cross it,
// this moves smoothly.
inline double TailMean(std::vector<double> v, double share) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end(), [](double a, double b) { return a > b; });
  size_t k = std::max<size_t>(1, static_cast<size_t>(share * static_cast<double>(v.size())));
  v.resize(k);
  return Mean(v);
}

// Typical latency of a mix of operation classes: the mean over the classes of each class's
// median. Every class counts once whatever its share of the operations, and a few samples
// slowed by a busy host move no median. Classes without samples are skipped.
inline double TypicalLatency(const std::vector<std::vector<double>>& by_class) {
  std::vector<double> medians;
  for (const auto& samples : by_class) {
    if (!samples.empty()) {
      medians.push_back(Percentile(samples, 50.0));
    }
  }
  return Mean(medians);
}

// Sustained rate of a closed loop whose operations `op_ms` come in blocks of `block` that
// together cover the workload's mix once: operations per second over the median block.
// Only whole blocks count.
inline double BlockRate(const std::vector<double>& op_ms, size_t block) {
  std::vector<double> block_ms;
  for (size_t i = 0; i + block <= op_ms.size(); i += block) {
    double sum = 0.0;
    for (size_t j = i; j < i + block; ++j) {
      sum += op_ms[j];
    }
    block_ms.push_back(sum);
  }
  double median_ms = Percentile(block_ms, 50.0);
  return median_ms > 0.0 ? static_cast<double>(block) * 1e3 / median_ms : 0.0;
}

// Core speed. The benchmark shares its host with other tenants, whose load can slow the
// cores by a third for minutes at a time. The closed loops run a fixed probe computation,
// which touches nothing of the program, after every operation, and every workload runs it
// after each set-up. Durations of CPU-bound work are scaled by kReferenceProbeMs over the
// median probe time taken alongside them: they read as if taken on a core that runs the
// probe in 1 ms.
constexpr double kReferenceProbeMs = 1.0;

// Runs the probe once and returns its wall time in ms.
double SpeedProbeMs();

// Factor that scales a duration measured alongside `probe_ms` to the reference core speed.
inline double SpeedScale(const std::vector<double>& probe_ms) {
  double median_ms = Percentile(probe_ms, 50.0);
  return median_ms > 0.0 ? kReferenceProbeMs / median_ms : 1.0;
}

// Share `part / whole`, 0 when `whole` is 0.
inline double Share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// Peak resident set size of this process, in MB.
double PeakRssMb();

// Relative slowdown of a traced window against an untraced one on the same inputs, in %.
inline double OverheadPct(double traced_cost, double untraced_cost) {
  return untraced_cost > 0.0 ? (traced_cost / untraced_cost - 1.0) * 100.0 : 0.0;
}

void RunServiceMix(const RunConfig& config, Report* report);
void RunDeployTight(const RunConfig& config, Report* report);
void RunChaosFailover(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
