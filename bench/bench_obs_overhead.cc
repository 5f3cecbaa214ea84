// Observability overhead bench: proves the tracing/event layer is cheap enough to leave
// compiled into every controller and simulator path. Runs an identical deploy + simulate
// workload with telemetry fully disabled and fully enabled and compares wall time
// (median of several repetitions), and microbenchmarks the disabled-path cost of a Span —
// a single relaxed atomic load — which is what every instrumented function pays when no
// one is collecting.
//
// Acceptance bar (ISSUE.md): enabled overhead < 5% of the uninstrumented run, disabled
// overhead indistinguishable from zero (a few ns per span).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "src/common/logging.h"
#include "src/controller/deployment.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/obs/trace.h"
#include "src/simulator/fluid_simulator.h"

namespace capsys {
namespace {

double Workload() {
  Cluster cluster(4, WorkerSpec::M5d2xlarge(8));
  QuerySpec q = BuildQ1Sliding();
  q.ScaleRates(2.0);
  DeployOptions options;
  options.policy = PlacementPolicy::kCaps;
  options.use_ds2_sizing = true;
  CapsysController controller(cluster, options);
  Deployment d = controller.Deploy(q);
  FluidSimulator sim(d.physical, cluster, d.placement);
  for (const auto& [op, r] : d.source_rates) {
    sim.SetSourceRate(op, r);
  }
  QuerySummary s = sim.RunMeasured(/*warmup_s=*/30, /*measure_s=*/60);
  return s.throughput;  // consumed so the work cannot be optimized away
}

double MedianSeconds(int reps, double* sink) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    *sink += Workload();
    times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

int Main() {
  InitLoggingFromEnv();
  constexpr int kReps = 5;
  double sink = 0.0;

  std::printf("=== Observability overhead (deploy Q1 + 90 s simulated, median of %d) ===\n\n",
              kReps);

  Tracer::Global().Disable();
  EventLog::Global().Disable();
  Workload();  // warm-up: touch code and allocator before either timed pass
  double off_s = MedianSeconds(kReps, &sink);
  std::printf("telemetry disabled: %.3f s\n", off_s);

  Tracer::Global().Enable();
  EventLog::Global().Enable();
  Tracer::Global().Reset();
  EventLog::Global().Reset();
  double on_s = MedianSeconds(kReps, &sink);
  size_t spans = Tracer::Global().SpanCount();
  size_t events = EventLog::Global().Count();
  std::printf("telemetry enabled:  %.3f s (%zu spans, %zu events collected)\n", on_s, spans,
              events);

  double overhead_pct = off_s > 0.0 ? (on_s / off_s - 1.0) * 100.0 : 0.0;
  std::printf("enabled overhead:   %+.2f%%  -> %s (bar: < 5%%)\n\n", overhead_pct,
              overhead_pct < 5.0 ? "PASS" : "FAIL");

  // Disabled fast path: a Span costs one relaxed atomic load when the tracer is off.
  Tracer::Global().Disable();
  EventLog::Global().Disable();
  constexpr int kSpanIters = 2'000'000;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpanIters; ++i) {
    Span s("bench.noop");
    sink += s.active() ? 1.0 : 0.0;
  }
  double per_span_ns =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() /
      kSpanIters * 1e9;
  std::printf("disabled span cost: %.1f ns/span over %d spans -> %s (bar: ~0, < 50 ns)\n",
              per_span_ns, kSpanIters, per_span_ns < 50.0 ? "PASS" : "FAIL");

  std::printf("\n(checksum %.1f)\n", sink);
  return 0;
}

}  // namespace
}  // namespace capsys

int main() { return capsys::Main(); }
