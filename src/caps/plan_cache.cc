#include "src/caps/plan_cache.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/str.h"
#include "src/common/thread_pool.h"
#include "src/dataflow/rates.h"

namespace capsys {

namespace {

inline void HashMix(uint64_t& h, uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

inline void HashDouble(uint64_t& h, double v) {
  // Quantize to ~9 significant digits so bit-level noise in profiled costs does not split
  // otherwise-identical jobs across cache entries.
  double q = v == 0.0 ? 0.0 : std::round(v * 1e9) / 1e9;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(q));
  std::memcpy(&bits, &q, sizeof(bits));
  HashMix(h, bits);
}

}  // namespace

uint64_t JobGraphFingerprint(const LogicalGraph& graph,
                             const std::map<OperatorId, double>& source_rates) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  HashMix(h, static_cast<uint64_t>(graph.num_operators()));
  for (const auto& op : graph.operators()) {
    HashMix(h, static_cast<uint64_t>(op.kind));
    HashMix(h, static_cast<uint64_t>(op.parallelism));
    HashDouble(h, op.profile.cpu_per_record);
    HashDouble(h, op.profile.io_bytes_per_record);
    HashDouble(h, op.profile.out_bytes_per_record);
    HashDouble(h, op.profile.selectivity);
    HashDouble(h, op.profile.gc_spike_fraction);
    HashMix(h, op.profile.stateful ? 1 : 0);
  }
  for (const auto& e : graph.edges()) {
    HashMix(h, static_cast<uint64_t>(e.from));
    HashMix(h, static_cast<uint64_t>(e.to));
    HashMix(h, static_cast<uint64_t>(e.scheme));
  }
  // Relative rates only: normalize by the largest source rate so uniformly scaled
  // submissions share a fingerprint (cost vectors are scale-invariant).
  double max_rate = 0.0;
  for (const auto& [op, r] : source_rates) {
    max_rate = std::max(max_rate, r);
  }
  for (const auto& [op, r] : source_rates) {
    HashMix(h, static_cast<uint64_t>(op));
    HashDouble(h, max_rate > 0.0 ? r / max_rate : 0.0);
  }
  return h;
}

std::string ClusterSignature(const Cluster& cluster) {
  // std::to_chars writes the shortest text that reads back to the same value, so the
  // signature is exact, and it costs a tenth of printf's "%.17g" on the service's hit path.
  std::string out;
  char buf[32];
  auto put = [&](auto value, char separator) {
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    out += separator;
  };
  for (const Worker& w : cluster.workers()) {
    put(w.spec.slots, '/');
    put(w.spec.cpu_capacity, '/');
    put(w.spec.io_bandwidth_bps, '/');
    put(w.spec.net_bandwidth_bps, ';');
  }
  return out;
}

std::string PlanCache::Key(const LogicalGraph& graph,
                           const std::map<OperatorId, double>& source_rates,
                           const Cluster& cluster) {
  return Sprintf("%016llx|%s",
                 static_cast<unsigned long long>(JobGraphFingerprint(graph, source_rates)),
                 ClusterSignature(cluster).c_str());
}

std::optional<CachedPlan> PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.plan;
}

void PlanCache::Insert(const std::string& key, CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(plan));
}

void PlanCache::InsertLocked(const std::string& key, CachedPlan plan) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (entries_.size() >= capacity_ && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  entries_[key] = Entry{std::move(plan), lru_.begin()};
}

bool PlanCache::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) > 0;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::string PlanCache::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> lines;
  for (const auto& [key, entry] : entries_) {
    const ResourceVector& alpha = entry.plan.alpha;
    lines.push_back(
        Sprintf("%s %.17g %.17g %.17g\n", key.c_str(), alpha.cpu, alpha.io, alpha.net));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
  }
  return out;
}

bool PlanCache::Deserialize(const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    CachedPlan plan;
    if (!(fields >> key >> plan.alpha.cpu >> plan.alpha.io >> plan.alpha.net) ||
        key.find('|') == std::string::npos) {
      entries_.clear();
      lru_.clear();
      return false;
    }
    InsertLocked(key, std::move(plan));
  }
  return true;
}

void PrecomputeThresholds(PlanCache& cache, const LogicalGraph& graph,
                          const std::map<OperatorId, double>& source_rates,
                          const Cluster& cluster,
                          const std::vector<std::vector<int>>& scenarios,
                          const AutoTuneOptions& options, int num_threads) {
  ThreadPool pool(std::max(1, num_threads));
  for (const auto& scenario : scenarios) {
    CAPSYS_CHECK(scenario.size() == static_cast<size_t>(graph.num_operators()));
    LogicalGraph sized = graph;
    sized.SetParallelism(scenario);
    std::string key = PlanCache::Key(sized, source_rates, cluster);
    if (sized.total_parallelism() > cluster.total_slots() || cache.Contains(key)) {
      continue;
    }
    pool.Submit([&cache, &source_rates, &cluster, &options, sized = std::move(sized),
                 key = std::move(key)] {
      PhysicalGraph physical = PhysicalGraph::Expand(sized);
      auto rates = PropagateRates(sized, source_rates);
      CostModel model(physical, cluster, TaskDemands(physical, rates));
      AutoTuneResult tuned = AutoTuneThresholds(model, options);
      if (tuned.feasible) {
        cache.Insert(key, CachedPlan{{}, tuned.alpha, {}});
      }
    });
  }
  pool.Wait();
}

}  // namespace capsys
