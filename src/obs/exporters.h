// Telemetry exporters (observability subsystem): serialize a MetricsRegistry to JSON,
// serialize collected spans to Chrome trace_event JSON (loadable in chrome://tracing /
// Perfetto), and write a whole run's telemetry bundle — metrics.json + trace.json +
// events.jsonl — into a directory.
#ifndef SRC_OBS_EXPORTERS_H_
#define SRC_OBS_EXPORTERS_H_

#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/obs/trace.h"

namespace capsys {

// Full JSON dump of the registry: every series with all its points, every counter, every
// histogram with bucket bounds/counts and p50/p95/p99.
std::string MetricsJson(const MetricsRegistry& registry);

// Chrome trace_event JSON ("traceEvents" array of complete "X" events, timestamps in
// microseconds) of the given spans. Span attributes become event "args".
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans);

// Writes a telemetry bundle into `dir` (created if needed):
//   metrics.json   MetricsJson(*registry)       — omitted when registry is null
//   trace.json     ChromeTraceJson of the global Tracer's spans
//   events.jsonl   the global EventLog as JSON Lines
// Returns false (and fills *error when non-null) on I/O failure.
bool WriteTelemetryBundle(const std::string& dir, const MetricsRegistry* registry,
                          std::string* error = nullptr);

}  // namespace capsys

#endif  // SRC_OBS_EXPORTERS_H_
