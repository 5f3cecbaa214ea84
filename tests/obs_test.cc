// Tests for the observability subsystem: span tracing (nesting, attributes, thread
// safety, disabled fast path), the structured event log and its typed emitters, the
// Chrome-trace / JSON-lines exporters, the telemetry bundle writer, and an end-to-end
// chaos run validating that the control plane actually emits the records the bundle
// promises.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/controller/chaos_experiments.h"
#include "src/nexmark/queries.h"
#include "src/obs/events.h"
#include "src/obs/exporters.h"
#include "src/obs/json_util.h"
#include "src/obs/trace.h"

namespace capsys {
namespace {

// The tracer and event log are process-global; each test starts from a clean, enabled
// state and leaves both disabled for whoever runs next.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Enable();
    Tracer::Global().Reset();
    EventLog::Global().Enable();
    EventLog::Global().Reset();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Reset();
    EventLog::Global().Disable();
    EventLog::Global().Reset();
  }
};

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Disable();
  {
    Span s("noop");
    EXPECT_FALSE(s.active());
    s.AddAttr("ignored", 1);  // must be a safe no-op
  }
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);
}

TEST_F(ObsTest, SpansNestViaThreadLocalStack) {
  {
    Span outer("outer");
    EXPECT_TRUE(outer.active());
    {
      Span inner("inner");
      Span sibling_child("child_of_inner");
    }
    Span second("second_child");
  }
  auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Spans are recorded at destruction: child_of_inner, inner, second_child, outer.
  const SpanRecord* outer = nullptr;
  const SpanRecord* inner = nullptr;
  const SpanRecord* grandchild = nullptr;
  const SpanRecord* second = nullptr;
  for (const auto& s : spans) {
    if (s.name == "outer") outer = &s;
    if (s.name == "inner") inner = &s;
    if (s.name == "child_of_inner") grandchild = &s;
    if (s.name == "second_child") second = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(grandchild, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(grandchild->parent, inner->id);
  EXPECT_EQ(second->parent, outer->id);
  // Same thread -> same logical tid; timing is sane.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_GE(outer->dur_us, inner->dur_us);
}

TEST_F(ObsTest, AttributesStringifyByType) {
  {
    Span s("attrs");
    s.AddAttr("str", std::string("hello"));
    s.AddAttr("cstr", "world");
    s.AddAttr("int", 42);
    s.AddAttr("dbl", 2.5);
  }
  auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 4u);
  EXPECT_EQ(spans[0].attrs[0], (std::pair<std::string, std::string>{"str", "hello"}));
  EXPECT_EQ(spans[0].attrs[1].second, "world");
  EXPECT_EQ(spans[0].attrs[2].second, "42");
  EXPECT_EQ(spans[0].attrs[3].first, "dbl");
  EXPECT_DOUBLE_EQ(std::stod(spans[0].attrs[3].second), 2.5);
}

TEST_F(ObsTest, ConcurrentSpansAllRecorded) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span root("thread_root");
        Span child("thread_child");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads * kSpansPerThread * 2));
  std::set<uint64_t> ids;
  std::set<int> tids;
  for (const auto& s : spans) {
    ids.insert(s.id);
    tids.insert(s.tid);
    if (s.name == "thread_root") {
      EXPECT_EQ(s.parent, 0u);  // nesting never leaks across threads
    } else {
      EXPECT_NE(s.parent, 0u);
    }
  }
  EXPECT_EQ(ids.size(), spans.size());  // ids unique
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST_F(ObsTest, ResetDropsSpansAndRestartsEpoch) {
  { Span s("before"); }
  EXPECT_EQ(Tracer::Global().SpanCount(), 1u);
  Tracer::Global().Reset();
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);
  { Span s("after"); }
  auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_LT(spans[0].start_us, 1e6);  // started well under a second after the new epoch
}

TEST_F(ObsTest, EventLogTypedEmitters) {
  EventLog::Global().set_now(12.5);
  EXPECT_DOUBLE_EQ(EventLog::Global().now(), 12.5);
  EmitPlacementDecision(12.5, "capsys", 16, 4, ResourceVector{0.9, 0.8, 0.7},
                        ResourceVector{0.1, 0.2, 0.3}, 0.25);
  EmitFaultInjected(13.0, "crash", 2, 0.0);
  EmitWorkerDeclaredDead(14.0, 2, true);
  EmitBackpressureOnset(15.0, 0.6);
  EXPECT_EQ(EventLog::Global().Count(), 4u);
  EXPECT_EQ(EventLog::Global().CountOf(EventType::kPlacementDecision), 1u);
  EXPECT_EQ(EventLog::Global().CountOf(EventType::kFaultInjected), 1u);
  EXPECT_EQ(EventLog::Global().CountOf(EventType::kScaleDecision), 0u);

  auto events = EventLog::Global().Snapshot();
  EXPECT_EQ(events[0].type, EventType::kPlacementDecision);
  EXPECT_DOUBLE_EQ(events[0].time_s, 12.5);
  std::string json = events[0].ToJson();
  EXPECT_NE(json.find("\"type\":\"PlacementDecision\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"policy\":\"capsys\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tasks\":16"), std::string::npos) << json;  // numbers unquoted
  // Four lines of JSON, one per event.
  std::string lines = EventLog::Global().ToJsonLines();
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 4);
  std::istringstream in(lines);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST_F(ObsTest, DisabledEventLogDropsEmits) {
  EventLog::Global().Disable();
  EmitFaultInjected(1.0, "crash", 0, 0.0);
  EmitBackpressureOnset(2.0, 0.9);
  EXPECT_EQ(EventLog::Global().Count(), 0u);
}

TEST_F(ObsTest, ChromeTraceJsonShape) {
  {
    Span outer("deploy \"q1\"");  // name needing escaping
    outer.AddAttr("tasks", 16);
    outer.AddAttr("policy", "capsys");
    Span inner("search");
  }
  std::string json = ChromeTraceJson(Tracer::Global().Snapshot());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"deploy \\\"q1\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tasks\":16"), std::string::npos);          // numeric attr unquoted
  EXPECT_NE(json.find("\"policy\":\"capsys\""), std::string::npos); // string attr quoted
  EXPECT_NE(json.find("\"parent_id\":"), std::string::npos);
  // Braces/brackets balance (cheap well-formedness check; no JSON parser available).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['), std::count(json.begin(), json.end(), ']'));
}

TEST_F(ObsTest, JsonUtilClassifiesNumbers) {
  EXPECT_TRUE(IsJsonNumber("42"));
  EXPECT_TRUE(IsJsonNumber("-1.5e3"));
  EXPECT_FALSE(IsJsonNumber(""));
  EXPECT_FALSE(IsJsonNumber("+1"));
  EXPECT_FALSE(IsJsonNumber(".5"));
  EXPECT_FALSE(IsJsonNumber("0x10"));
  EXPECT_FALSE(IsJsonNumber("nan"));
  EXPECT_FALSE(IsJsonNumber("12abc"));
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- End-to-end: a chaos run produces the telemetry the bundle promises ---------------------

TEST_F(ObsTest, ChaosRunEmitsDecisionsFaultsAndNestedSpans) {
  Cluster cluster(4, WorkerSpec::R5dXlarge(4));
  QuerySpec q = BuildQ1Sliding();
  FaultSchedule schedule;
  schedule.Crash(20.0, 1).Restore(60.0, 1);
  ChaosExperimentOptions options;
  options.policy = PlacementPolicy::kCaps;  // so controller.place nests the CAPS search
  options.run_s = 90.0;
  options.seed = 3;
  options.search_threads = 1;
  ChaosRun run = RunChaosExperiment(q, cluster, schedule, options);

  // Structured events: at least the initial placement and the injected crash/restore.
  EventLog& log = EventLog::Global();
  EXPECT_GE(log.CountOf(EventType::kPlacementDecision), 1u);
  EXPECT_GE(log.CountOf(EventType::kFaultInjected), 2u);
  bool saw_crash = false;
  for (const Event& e : log.Snapshot()) {
    if (e.type != EventType::kFaultInjected) {
      continue;
    }
    for (const auto& [key, value] : e.fields) {
      if (key == "kind" && value == "crash") {
        saw_crash = true;
        EXPECT_DOUBLE_EQ(e.time_s, 20.0);
      }
    }
    if (saw_crash) break;
  }
  EXPECT_TRUE(saw_crash);

  // Spans: the chaos driver, the placement pipeline, and the search nested inside it.
  auto spans = Tracer::Global().Snapshot();
  const SpanRecord* place = nullptr;
  const SpanRecord* search = nullptr;
  bool saw_chaos_root = false;
  for (const auto& s : spans) {
    if (s.name == "controller.place" && place == nullptr) place = &s;
    if (s.name == "caps.search.run" && search == nullptr) search = &s;
    if (s.name == "chaos.run") saw_chaos_root = true;
  }
  EXPECT_TRUE(saw_chaos_root);
  ASSERT_NE(place, nullptr);
  ASSERT_NE(search, nullptr);
  EXPECT_NE(place->parent, 0u);   // nested under controller.deploy / chaos.run
  EXPECT_NE(search->parent, 0u);  // nested under controller.place

  // Driver telemetry: the timeline gauges and at least one replan-latency observation.
  EXPECT_NE(run.telemetry.Find("chaos.0.throughput"), nullptr);
  const Histogram* replan = run.telemetry.FindHistogram("chaos.0.replan_seconds");
  ASSERT_NE(replan, nullptr);
  EXPECT_GE(replan->Count(), 1u);

  // Bundle: exactly the three artifacts land on disk, metrics.json holding the registry.
  std::string dir = ::testing::TempDir() + "capsys_obs_bundle";
  std::filesystem::remove_all(dir);
  std::string error;
  ASSERT_TRUE(WriteTelemetryBundle(dir, &run.telemetry, &error)) << error;
  std::set<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    written.insert(entry.path().filename().string());
  }
  EXPECT_EQ(written, (std::set<std::string>{"metrics.json", "trace.json", "events.jsonl"}));
  auto read = [&dir](const char* file) {
    std::ifstream in(dir + "/" + file);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(read("metrics.json"), MetricsJson(run.telemetry));
  EXPECT_FALSE(read("trace.json").empty());
  EXPECT_FALSE(read("events.jsonl").empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace capsys
