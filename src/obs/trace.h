// Lightweight span tracing for the control plane (observability subsystem).
//
// A Span is an RAII scope: construction stamps a monotonic start time, destruction records
// the completed span into the global Tracer. Spans nest via a thread-local stack, so a span
// opened inside another span's scope (on the same thread) records it as its parent.
// Collection is thread-safe; the only cost on a hot path with tracing disabled is one
// relaxed atomic load per span (measured by bench_obs_overhead).
//
// Completed spans export to Chrome trace_event JSON (exporters.h) and open directly in
// chrome://tracing or Perfetto.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace capsys {

// One completed span. Times are microseconds since the tracer's epoch (reset by Reset()).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root span
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;  // logical thread id, assigned in first-span order
  std::vector<std::pair<std::string, std::string>> attrs;
};

// Process-global collector of completed spans. Disabled by default; when disabled, Span
// construction/destruction is a single relaxed atomic load.
class Tracer {
 public:
  static Tracer& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drops all collected spans and restarts the time epoch at now.
  void Reset();

  std::vector<SpanRecord> Snapshot() const;
  size_t SpanCount() const;

  // -- Internal API used by Span (public so Span need not be a friend of a singleton). --
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  double NowUs() const;
  int ThisThreadTid();
  void Submit(SpanRecord&& rec);

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<int> next_tid_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII tracing scope. Creating a Span while another Span is open on the same thread makes
// the new one a child. Inactive (tracing disabled at construction) spans ignore attributes
// and record nothing.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  void AddAttr(const char* key, const std::string& value);
  void AddAttr(const char* key, const char* value);
  void AddAttr(const char* key, double value);
  void AddAttr(const char* key, uint64_t value);
  void AddAttr(const char* key, int value);

 private:
  bool active_ = false;
  SpanRecord rec_;
};

}  // namespace capsys

#endif  // SRC_OBS_TRACE_H_
