// Metrics collection (paper §5.1 "Metrics collector"): time series recorded during runtime
// that the scaling and placement controllers pull on demand.
#ifndef SRC_METRICS_METRICS_H_
#define SRC_METRICS_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace capsys {

// One timestamped sample stream for a single metric (e.g. "task.3.true_rate"). Samples
// must be appended in non-decreasing time order (CHECKed).
class TimeSeries {
 public:
  void Record(double time_s, double value);

  struct Point {
    double time_s;
    double value;
  };
  const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
};

// Monotonically increasing count (events, ticks, retries).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t Value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Fixed-bucket histogram of an observed quantity (latencies, decision times). Bucket counts
// and the sum export with the registry (MetricsJson); exact p50/p95/p99 come from the
// retained sample distribution (src/common/stats) — fine at the experiment scales here.
class Histogram {
 public:
  // `upper_bounds` must be strictly increasing; an implicit +Inf bucket is appended.
  explicit Histogram(std::vector<double> upper_bounds = DefaultBuckets());

  void Observe(double value);

  size_t Count() const { return samples_.Count(); }
  double Sum() const { return sum_; }
  double Mean() const { return samples_.Mean(); }
  // Exact linear-interpolated percentile over the retained samples, q in [0, 100].
  double Percentile(double q) const { return samples_.Percentile(q); }

  const std::vector<double>& bounds() const { return bounds_; }
  // One count per bound plus the final +Inf bucket; non-cumulative.
  const std::vector<uint64_t>& bucket_counts() const { return bucket_counts_; }

  // Exponential 1us..30s bounds in seconds — suits the decision/step latencies here.
  static std::vector<double> DefaultBuckets();

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> bucket_counts_;
  double sum_ = 0.0;
  Distribution samples_;
};

// Named registry of time series, counters, and histograms. Metric names follow the
// "scope.id.metric" convention, e.g. "task.7.true_rate", "worker.2.cpu_util",
// "query.0.backpressure". The three instrument kinds live in separate namespaces — a
// counter and a series may share a name.
class MetricsRegistry {
 public:
  // Appends to the series, creating it if absent.
  void Record(const std::string& name, double time_s, double value);
  // Returns nullptr when the series does not exist.
  const TimeSeries* Find(const std::string& name) const;

  // Returns the counter, creating a zeroed one if absent.
  Counter& GetCounter(const std::string& name);
  const Counter* FindCounter(const std::string& name) const;

  // Returns the histogram, creating one if absent. `upper_bounds` only applies on
  // creation (empty = Histogram::DefaultBuckets()); later calls ignore it.
  Histogram& GetHistogram(const std::string& name, std::vector<double> upper_bounds = {});
  const Histogram* FindHistogram(const std::string& name) const;

  std::vector<std::string> Names() const;
  std::vector<std::string> CounterNames() const;
  std::vector<std::string> HistogramNames() const;

 private:
  std::map<std::string, TimeSeries> series_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

// Standard metric name builders so producers and consumers agree on keys.
std::string TaskMetric(int task_id, const std::string& metric);
std::string WorkerMetric(int worker_id, const std::string& metric);
std::string OperatorMetric(int op_id, const std::string& metric);

}  // namespace capsys

#endif  // SRC_METRICS_METRICS_H_
