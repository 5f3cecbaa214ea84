#include "src/metrics/metrics.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/str.h"

namespace capsys {

void TimeSeries::Record(double time_s, double value) {
  CAPSYS_CHECK_MSG(points_.empty() || time_s >= points_.back().time_s,
                   "TimeSeries samples must be appended in time order");
  points_.push_back(Point{.time_s = time_s, .value = value});
}

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CAPSYS_CHECK_MSG(bounds_[i] > bounds_[i - 1],
                     "histogram bucket bounds must be strictly increasing");
  }
  bucket_counts_.assign(bounds_.size() + 1, 0);  // + the implicit +Inf bucket
}

void Histogram::Observe(double value) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++bucket_counts_[static_cast<size_t>(it - bounds_.begin())];
  sum_ += value;
  samples_.Add(value);
}

std::vector<double> Histogram::DefaultBuckets() {
  // 1us..30s, roughly x3 per step.
  return {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
          3e-2, 0.1,  0.3,  1.0,  3.0,  10.0, 30.0};
}

void MetricsRegistry::Record(const std::string& name, double time_s, double value) {
  series_[name].Record(time_s, value);
}

const TimeSeries* MetricsRegistry::Find(const std::string& name) const {
  auto it = series_.find(name);
  return it != series_.end() ? &it->second : nullptr;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) { return counters_[name]; }

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, Histogram(upper_bounds.empty() ? Histogram::DefaultBuckets()
                                                           : std::move(upper_bounds)))
             .first;
  }
  return it->second;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, ts] : series_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    names.push_back(name);
  }
  return names;
}

std::string TaskMetric(int task_id, const std::string& metric) {
  return Sprintf("task.%d.%s", task_id, metric.c_str());
}

std::string WorkerMetric(int worker_id, const std::string& metric) {
  return Sprintf("worker.%d.%s", worker_id, metric.c_str());
}

std::string OperatorMetric(int op_id, const std::string& metric) {
  return Sprintf("op.%d.%s", op_id, metric.c_str());
}

}  // namespace capsys
