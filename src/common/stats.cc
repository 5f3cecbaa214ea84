#include "src/common/stats.h"

#include <algorithm>

#include "src/common/str.h"

namespace capsys {

void Distribution::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Distribution::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double Distribution::Percentile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  if (q <= 0.0) {
    return samples_.front();
  }
  if (q >= 100.0) {
    return samples_.back();
  }
  double pos = q / 100.0 * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) {
    return samples_.back();
  }
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

BoxSummary Summarize(const std::vector<double>& values) {
  Distribution d;
  for (double v : values) {
    d.Add(v);
  }
  BoxSummary s;
  s.min = d.Percentile(0);
  s.p25 = d.Percentile(25);
  s.median = d.Percentile(50);
  s.p75 = d.Percentile(75);
  s.max = d.Percentile(100);
  s.mean = d.Mean();
  return s;
}

std::string BoxSummary::ToString() const {
  return Sprintf("min=%.4g p25=%.4g med=%.4g p75=%.4g max=%.4g mean=%.4g", min, p25, median, p75,
                 max, mean);
}

}  // namespace capsys
