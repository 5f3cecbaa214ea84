// Per-span-name rollup of a traced window: count, total time and self time of every span
// the program recorded, plus the numeric and boolean attributes the layer metrics need.
// Self time is a span's duration minus the part of it that its child spans cover.
#ifndef PERFBENCH_SRC_ROLLUP_H_
#define PERFBENCH_SRC_ROLLUP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

struct SpanStats {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
  std::map<std::string, double> attr_sums;     // numeric attributes, summed
  std::map<std::string, uint64_t> attr_trues;  // spans whose attribute reads "true"
};

class Rollup {
 public:
  explicit Rollup(const std::vector<capsys::SpanRecord>& spans);

  // Stats of one span name; all-zero when no such span was recorded.
  const SpanStats& Get(const std::string& name) const;
  double AttrSum(const std::string& name, const std::string& key) const;
  uint64_t AttrTrues(const std::string& name, const std::string& key) const;

  // One line per span name: count, total ms, self ms.
  std::string ToString() const;

 private:
  std::map<std::string, SpanStats> by_name_;
};

struct Report;

// caps.autotune.* and caps.search.* layer metrics. A probe that ran at least
// `probe_timeout_s` counts as having hit its wall-clock budget; `plan_total_ms` is the
// time of the span that encloses planning on this workload.
void AddCapsMetrics(const Rollup& rollup, double probe_timeout_s, double plan_total_ms,
                    Report* report);
// simulator.* layer metrics; `run_total_ms` is the wall time the simulator share is of.
void AddSimulatorMetrics(const Rollup& rollup, double run_total_ms, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ROLLUP_H_
