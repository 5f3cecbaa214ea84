#include "src/obs/exporters.h"

#include <cstdio>
#include <filesystem>

#include "src/common/str.h"
#include "src/obs/events.h"
#include "src/obs/json_util.h"

namespace capsys {

std::string MetricsJson(const MetricsRegistry& registry) {
  std::string out = "{\n  \"series\": {\n";
  bool first = true;
  for (const std::string& name : registry.Names()) {
    const TimeSeries* ts = registry.Find(name);
    if (ts == nullptr) {
      continue;
    }
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += Sprintf("    \"%s\": [", JsonEscape(name).c_str());
    for (size_t i = 0; i < ts->points().size(); ++i) {
      const auto& p = ts->points()[i];
      out += Sprintf("%s[%s,%s]", i > 0 ? "," : "", JsonNumber(p.time_s).c_str(),
                     JsonNumber(p.value).c_str());
    }
    out += "]";
  }
  out += "\n  },\n  \"counters\": {\n";
  first = true;
  for (const std::string& name : registry.CounterNames()) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += Sprintf("    \"%s\": %llu", JsonEscape(name).c_str(),
                   static_cast<unsigned long long>(registry.FindCounter(name)->Value()));
  }
  out += "\n  },\n  \"histograms\": {\n";
  first = true;
  for (const std::string& name : registry.HistogramNames()) {
    const Histogram* h = registry.FindHistogram(name);
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += Sprintf("    \"%s\": {\"count\":%llu,\"sum\":%s", JsonEscape(name).c_str(),
                   static_cast<unsigned long long>(h->Count()),
                   JsonNumber(h->Sum()).c_str());
    if (h->Count() > 0) {
      out += Sprintf(",\"p50\":%s,\"p95\":%s,\"p99\":%s",
                     JsonNumber(h->Percentile(50)).c_str(),
                     JsonNumber(h->Percentile(95)).c_str(),
                     JsonNumber(h->Percentile(99)).c_str());
    }
    out += ",\"bounds\":[";
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      out += Sprintf("%s%s", i > 0 ? "," : "", JsonNumber(h->bounds()[i]).c_str());
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < h->bucket_counts().size(); ++i) {
      out += Sprintf("%s%llu", i > 0 ? "," : "",
                     static_cast<unsigned long long>(h->bucket_counts()[i]));
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) {
      out += ",";
    }
    out += Sprintf("\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,"
                   "\"dur\":%s,\"args\":{\"span_id\":%llu,\"parent_id\":%llu",
                   JsonEscape(s.name).c_str(), s.tid, JsonNumber(s.start_us).c_str(),
                   JsonNumber(s.dur_us).c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    for (const auto& [key, value] : s.attrs) {
      out += Sprintf(",\"%s\":", JsonEscape(key).c_str());
      if (IsJsonNumber(value)) {
        out += value;
      } else {
        out += Sprintf("\"%s\"", JsonEscape(value).c_str());
      }
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

namespace {

bool WriteFile(const std::string& path, const std::string& content, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  bool ok = content.empty() || std::fwrite(content.data(), 1, content.size(), f) == content.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) {
    *error = "short write to " + path;
  }
  return ok;
}

}  // namespace

bool WriteTelemetryBundle(const std::string& dir, const MetricsRegistry* registry,
                          std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create " + dir + ": " + ec.message();
    }
    return false;
  }
  if (registry != nullptr) {
    if (!WriteFile(dir + "/metrics.json", MetricsJson(*registry), error)) {
      return false;
    }
  }
  return WriteFile(dir + "/trace.json", ChromeTraceJson(Tracer::Global().Snapshot()), error) &&
         WriteFile(dir + "/events.jsonl", EventLog::Global().ToJsonLines(), error);
}

}  // namespace capsys
