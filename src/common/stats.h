// Percentile and summary helpers used by metrics, the simulator, and benches.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace capsys {

// Exact percentile over a retained sample vector. Suitable for the experiment scales here
// (at most a few hundred thousand samples per series).
class Distribution {
 public:
  void Add(double x) { samples_.push_back(x); }

  size_t Count() const { return samples_.size(); }
  double Mean() const;
  // Linear-interpolated percentile, q in [0, 100].
  double Percentile(double q) const;
  double Median() const { return Percentile(50.0); }
  double Min() const { return Percentile(0.0); }
  double Max() const { return Percentile(100.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

// Five-number summary of a batch of run results — what the paper's box plots show.
struct BoxSummary {
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
  double mean = 0.0;

  std::string ToString() const;
};

BoxSummary Summarize(const std::vector<double>& values);

}  // namespace capsys

#endif  // SRC_COMMON_STATS_H_
