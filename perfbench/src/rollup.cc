#include "perfbench/src/rollup.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "perfbench/src/bench.h"

namespace perfbench {

Rollup::Rollup(const std::vector<capsys::SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_us, s.start_us + s.dur_us);
    }
  }
  for (const auto& s : spans) {
    // Union of the child intervals, clipped to the parent's own interval.
    double covered_us = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double end_us = s.start_us + s.dur_us;
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_us);
        hi = std::min(hi, end_us);
        if (hi <= lo) {
          continue;
        }
        if (lo > cur_hi) {
          covered_us += std::max(0.0, cur_hi - cur_lo);
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered_us += std::max(0.0, cur_hi - cur_lo);
    }
    SpanStats& st = by_name_[s.name];
    ++st.count;
    st.total_ms += s.dur_us / 1e3;
    st.self_ms += std::max(0.0, s.dur_us - covered_us) / 1e3;
    st.durations_ms.push_back(s.dur_us / 1e3);
    for (const auto& [key, value] : s.attrs) {
      if (value == "true") {
        ++st.attr_trues[key];
        continue;
      }
      char* end = nullptr;
      double v = std::strtod(value.c_str(), &end);
      if (end != value.c_str() && *end == '\0') {
        st.attr_sums[key] += v;
      }
    }
  }
}

const SpanStats& Rollup::Get(const std::string& name) const {
  static const SpanStats kEmpty;
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

double Rollup::AttrSum(const std::string& name, const std::string& key) const {
  const auto& sums = Get(name).attr_sums;
  auto it = sums.find(key);
  return it == sums.end() ? 0.0 : it->second;
}

uint64_t Rollup::AttrTrues(const std::string& name, const std::string& key) const {
  const auto& trues = Get(name).attr_trues;
  auto it = trues.find(key);
  return it == trues.end() ? 0 : it->second;
}

void AddCapsMetrics(const Rollup& rollup, double probe_timeout_s, double plan_total_ms,
                    Report* report) {
  const SpanStats& tune = rollup.Get("caps.autotune");
  const SpanStats& probe = rollup.Get("caps.autotune.probe");
  const SpanStats& search = rollup.Get("caps.search.run");
  double budget_hits = 0.0;
  for (double ms : probe.durations_ms) {
    budget_hits += ms >= probe_timeout_s * 1e3 ? 1.0 : 0.0;
  }
  double probes = static_cast<double>(probe.count);
  double feasible = static_cast<double>(rollup.AttrTrues("caps.autotune.probe", "feasible"));
  report->Add("caps.autotune.ms_per_tune", Share(tune.total_ms, tune.count), "ms");
  report->Add("caps.autotune.probes_per_tune", Share(probes, tune.count), "count");
  report->Add("caps.autotune.probe_budget_hit_share", Share(budget_hits, probes), "ratio");
  report->Add("caps.autotune.infeasible_probe_share", Share(probes - feasible, probes),
              "ratio");
  report->Add("caps.autotune.share_of_plan", Share(tune.total_ms, plan_total_ms), "ratio");
  report->Add("caps.search.ms_per_call", Share(search.total_ms, search.count), "ms");
  report->Add("caps.search.nodes_per_s",
              Share(rollup.AttrSum("caps.search.run", "nodes"), search.total_ms / 1e3), "1/s");
  report->Add("caps.search.timed_out_share",
              Share(rollup.AttrTrues("caps.search.run", "timed_out"), search.count), "ratio");
}

void AddSimulatorMetrics(const Rollup& rollup, double run_total_ms, Report* report) {
  const SpanStats& sim = rollup.Get("sim.run_for");
  report->Add("simulator.ns_per_tick",
              Share(sim.total_ms * 1e6, rollup.AttrSum("sim.run_for", "ticks")), "ns");
  report->Add("simulator.share_of_run", Share(sim.total_ms, run_total_ms), "ratio");
}

std::string Rollup::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %10s %14s %14s\n", "span", "count", "total_ms",
                "self_ms");
  out += line;
  for (const auto& [name, st] : by_name_) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(st.count), st.total_ms, st.self_ms);
    out += line;
  }
  return out;
}

}  // namespace perfbench
