#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "llm/checkpoint.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace sca::obs {
namespace {

/// Tests drive explicit pool sizes, tracer, event-log and flight-recorder
/// state; restore all of it so the other suites sharing the process are
/// unaffected.
class ObsTest : public ::testing::Test {
 protected:
  ObsTest() : flightInitiallyEnabled_(flight::enabled()) {}
  ~ObsTest() override {
    EventLog::global().configure("", LogLevel::kInfo);
    EventLog::global().setStderrLevel(LogLevel::kWarn);
    runtime::setGlobalThreadCount(0);
    Tracer::global().setEnabled(false);
    Tracer::global().clear();
    flight::detail::setEnabledForTest(flightInitiallyEnabled_);
  }

 private:
  bool flightInitiallyEnabled_;
};

/// kLog events named "component:event" across every flight ring.
std::size_t flightLogEvents(std::string_view name) {
  std::size_t count = 0;
  for (const flight::ThreadSnapshot& thread : flight::snapshot()) {
    for (const flight::SnapshotEvent& event : thread.events) {
      if (event.kind == static_cast<std::uint8_t>(flight::EventKind::kLog) &&
          event.name == name) {
        ++count;
      }
    }
  }
  return count;
}

/// What was recorded between two snapshots of the stable section: every
/// value is a lifetime total, so a stretch of work is a difference.
MetricsSnapshot stableDelta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value != base) delta.counters[name] = value - base;
  }
  for (const auto& [name, histogram] : after.histograms) {
    HistogramSnapshot diff = histogram;
    const auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      for (std::size_t b = 0; b < diff.counts.size(); ++b) {
        diff.counts[b] -= it->second.counts[b];
      }
    }
    if (diff.total() != 0) delta.histograms[name] = std::move(diff);
  }
  return delta;
}

// The registry's headline contract: the stable section of a snapshot is
// byte-identical for every thread count, as long as the recorded *events*
// are. This is exactly what the CI observability smoke compares between
// whole micro_pipeline runs; here it is pinned at the unit level.
TEST_F(ObsTest, StableSnapshotIsByteIdenticalAcrossThreadCounts) {
  MetricsRegistry& registry = MetricsRegistry::global();
  std::vector<std::string> renders;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    runtime::setGlobalThreadCount(threads);
    const Counter items = registry.counter("obs_test_items");
    const Histogram sizes =
        registry.histogram("obs_test_sizes", {1.0, 4.0, 16.0});
    const MetricsSnapshot before = registry.snapshot();
    runtime::parallelFor(0, 512, [&](std::size_t i) {
      items.add();
      sizes.observe(static_cast<double>(i % 20));
    });
    renders.push_back(
        stableMetricsJson(stableDelta(before, registry.snapshot())));
  }
  EXPECT_EQ(renders[0], renders[1]);
  // And the section is not trivially empty.
  EXPECT_NE(renders[0].find("\"obs_test_items\":512"), std::string::npos);
}

TEST_F(ObsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const Histogram h = registry.histogram("obs_test_edges", {1.0, 2.0, 4.0});
  const MetricsSnapshot before = registry.snapshot();
  for (const double v : {0.5, 1.0, 1.5, 2.0, 4.0, 4.1}) h.observe(v);
  const MetricsSnapshot delta = stableDelta(before, registry.snapshot());
  ASSERT_EQ(delta.histograms.count("obs_test_edges"), 1u);
  const HistogramSnapshot& edges = delta.histograms.at("obs_test_edges");
  ASSERT_EQ(edges.counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(edges.counts[0], 2u);      // 0.5, 1.0  (bound inclusive)
  EXPECT_EQ(edges.counts[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(edges.counts[2], 1u);      // 4.0
  EXPECT_EQ(edges.counts[3], 1u);      // 4.1 overflows
  EXPECT_EQ(edges.total(), 6u);
}

TEST_F(ObsTest, CounterValueIsALifetimeTotal) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const Counter c = registry.counter("obs_test_lifetime");
  const std::uint64_t before = registry.counterValue("obs_test_lifetime");
  c.add(5);
  c.add(2);
  EXPECT_EQ(registry.counterValue("obs_test_lifetime") - before, 7u);
  // Unregistered names read as zero rather than erroring.
  EXPECT_EQ(registry.counterValue("obs_test_never_registered"), 0u);
}

TEST_F(ObsTest, GaugeSumAccumulatesAndMaxKeepsHighWater) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const Gauge sum = registry.gauge("obs_test_sum", GaugeKind::kSum);
  const Gauge max = registry.gauge("obs_test_max", GaugeKind::kMax);
  const MetricsSnapshot before = registry.snapshot();
  const double sumBefore = before.gauges.count("obs_test_sum") != 0
                               ? before.gauges.at("obs_test_sum")
                               : 0.0;
  sum.add(1.5);
  sum.add(2.5);
  max.recordMax(3.0);
  max.recordMax(7.0);
  max.recordMax(5.0);
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("obs_test_sum") - sumBefore, 4.0);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("obs_test_max"), 7.0);
  // Gauges are always runtime: never in the stable section.
  EXPECT_EQ(stableMetricsJson(snapshot).find("obs_test_sum"),
            std::string::npos);
}

TEST_F(ObsTest, ReRegisteringUnderADifferentTypeThrows) {
  MetricsRegistry& registry = MetricsRegistry::global();
  (void)registry.counter("obs_test_typed");
  EXPECT_THROW((void)registry.gauge("obs_test_typed"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("obs_test_typed", {1.0}),
               std::logic_error);
  // Same type re-registration is find-or-create, not an error.
  (void)registry.counter("obs_test_typed");
}

TEST_F(ObsTest, SpanParentLinkageFollowsLexicalNesting) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  {
    Span outer("obs_test_outer");
    {
      Span inner("obs_test_inner");
      EXPECT_NE(inner.id(), 0u);
      EXPECT_NE(inner.id(), outer.id());
    }
    { Span sibling("obs_test_sibling"); }
  }
  const std::vector<TraceEvent> events = tracer.snapshotEvents();
  ASSERT_EQ(events.size(), 3u);
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* sibling = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name == "obs_test_outer") outer = &e;
    if (e.name == "obs_test_inner") inner = &e;
    if (e.name == "obs_test_sibling") sibling = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(outer->parentId, 0u);  // root span
  EXPECT_EQ(inner->parentId, outer->id);
  EXPECT_EQ(sibling->parentId, outer->id);
  EXPECT_GE(inner->startNs, outer->startNs);
  EXPECT_LE(inner->startNs + inner->durationNs,
            outer->startNs + outer->durationNs);
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(false);
  tracer.clear();
  {
    Span span("obs_test_invisible");
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(tracer.snapshotEvents().empty());
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormedAndRoundTrips) {
  Tracer& tracer = Tracer::global();
  tracer.setEnabled(true);
  tracer.clear();
  {
    Span outer("obs_test_trace_outer");
    { Span inner("obs_test_trace_inner"); }
  }
  const std::string json = chromeTraceJson(tracer.snapshotEvents());
  const std::string array = extractJsonArray(json, "traceEvents");
  ASSERT_FALSE(array.empty());
  std::vector<std::string> elements;
  ASSERT_TRUE(topLevelElements(array, &elements));
  ASSERT_EQ(elements.size(), 2u);
  for (const std::string& e : elements) {
    EXPECT_NE(e.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(e.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(e.find("\"ts\":"), std::string::npos);
    EXPECT_NE(e.find("\"dur\":"), std::string::npos);
  }

  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(tracer.writeChromeTrace(path).isOk());
  const util::Result<std::string> back = util::readFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), json);
}

TEST_F(ObsTest, RunManifestMarksPartialAndCompleteRuns) {
  // The manifest reports lifetime values, so expect whatever the process
  // has counted so far.
  MetricsRegistry::global().counter("obs_test_manifest").add(1);
  const std::string counted =
      "\"obs_test_manifest\":" +
      std::to_string(
          MetricsRegistry::global().counterValue("obs_test_manifest"));

  RunManifestOptions options;
  options.path = ::testing::TempDir() + "obs_test_manifest.json";
  options.benchName = "obs_test_bench";
  options.threads = 3;

  options.complete = false;
  ASSERT_TRUE(writeRunManifest(options).isOk());
  util::Result<std::string> manifest = util::readFile(options.path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest.value().find("\"schema\":\"sca-manifest-v2\""),
            std::string::npos);
  EXPECT_NE(manifest.value().find("\"status\":\"partial\""),
            std::string::npos);
  EXPECT_NE(manifest.value().find("\"bench\":\"obs_test_bench\""),
            std::string::npos);
  EXPECT_NE(manifest.value().find("\"threads\":3"), std::string::npos);

  options.complete = true;
  ASSERT_TRUE(writeRunManifest(options).isOk());
  manifest = util::readFile(options.path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest.value().find("\"status\":\"complete\""),
            std::string::npos);

  // The embedded stable section is navigable with the bundled scanners —
  // the same path sca_cli metrics walks.
  const std::string metrics = extractJsonObject(manifest.value(), "metrics");
  ASSERT_FALSE(metrics.empty());
  const std::string counters = extractJsonObject(metrics, "counters");
  ASSERT_FALSE(counters.empty());
  EXPECT_NE(counters.find(counted), std::string::npos);
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(topLevelEntries(metrics, &entries));
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries[0].first, "counters");
}

TEST_F(ObsTest, JsonScannersHandleNestingEscapesAndMalformedInput) {
  const std::string json =
      "{\"a\":{\"nested\":{\"x\":1}},\"s\":\"br{ace \\\" quote\","
      "\"arr\":[{\"k\":[1,2]},\"two\"],\"n\":7}";
  EXPECT_EQ(extractJsonObject(json, "a"), "{\"nested\":{\"x\":1}}");
  EXPECT_EQ(extractJsonArray(json, "arr"), "[{\"k\":[1,2]},\"two\"]");
  EXPECT_TRUE(extractJsonObject(json, "missing").empty());
  EXPECT_TRUE(extractJsonArray(json, "a").empty());  // object, not array

  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(topLevelEntries(json, &entries));
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[1].first, "s");
  EXPECT_EQ(entries[1].second, "\"br{ace \\\" quote\"");
  EXPECT_EQ(entries[3].second, "7");

  std::vector<std::string> elements;
  ASSERT_TRUE(topLevelElements("[{\"k\":[1,2]},\"two\"]", &elements));
  ASSERT_EQ(elements.size(), 2u);
  EXPECT_EQ(elements[0], "{\"k\":[1,2]}");
  EXPECT_EQ(elements[1], "\"two\"");

  EXPECT_FALSE(topLevelEntries("{\"unterminated\":", &entries));
  EXPECT_FALSE(topLevelElements("[1,2", &elements));
}

TEST_F(ObsTest, EventLogFiltersByLevelAndRecordsFields) {
  EventLog& log = EventLog::global();
  const std::string path = ::testing::TempDir() + "obs_test_events.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(path, "").isOk());
  log.configure(path, LogLevel::kWarn);
  EXPECT_FALSE(log.enabledFor(LogLevel::kDebug));
  EXPECT_FALSE(log.enabledFor(LogLevel::kInfo));
  EXPECT_TRUE(log.enabledFor(LogLevel::kWarn));
  EXPECT_TRUE(log.enabledFor(LogLevel::kError));

  logEvent(LogLevel::kInfo, "test", "filtered_out");
  logEvent(LogLevel::kWarn, "test", "kept",
           [](util::JsonObjectBuilder& fields) { fields.addInt("n", 7); });
  log.configure("", LogLevel::kInfo);

  const util::Result<std::string> content = util::readFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value().find("filtered_out"), std::string::npos);
  EXPECT_NE(content.value().find("\"event\":\"kept\""), std::string::npos);
  EXPECT_NE(content.value().find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(content.value().find("\"component\":\"test\""),
            std::string::npos);
  EXPECT_NE(content.value().find("\"fields\":{\"n\":7}"), std::string::npos);
}

TEST_F(ObsTest, EventLogStampsTheInnermostLiveSpan) {
  Tracer::global().setEnabled(true);
  Tracer::global().clear();
  EventLog& log = EventLog::global();
  const std::string path = ::testing::TempDir() + "obs_test_span_log.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(path, "").isOk());
  log.configure(path, LogLevel::kDebug);

  std::uint64_t spanId = 0;
  {
    Span span("obs_test_log_span");
    spanId = span.id();
    logEvent(LogLevel::kInfo, "test", "inside");
  }
  logEvent(LogLevel::kInfo, "test", "outside");
  log.configure("", LogLevel::kInfo);

  ASSERT_NE(spanId, 0u);
  const util::Result<std::string> content = util::readFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(
      content.value().find("\"span\":\"" + util::toHex64(spanId) + "\""),
      std::string::npos);
  EXPECT_NE(content.value().find("\"span\":\"" + util::toHex64(0) + "\""),
            std::string::npos);
}

TEST_F(ObsTest, DisabledEventLogWritesNothing) {
  EventLog& log = EventLog::global();
  log.configure("", LogLevel::kDebug);
  log.setStderrLevel(LogLevel::kOff);
  EXPECT_FALSE(log.enabledFor(LogLevel::kError));
  // Call sites stay armed; with no sink they must be inert and crash-free.
  logEvent(LogLevel::kError, "test", "dropped",
           [](util::JsonObjectBuilder& fields) { fields.addInt("n", 1); });
}

// The stderr sink prints one "[level] component.event {fields}" line per
// record at or above its own threshold (kWarn by default), independently
// of the JSONL file; one logEvent call feeds the file, stderr and the
// flight ring alike.
TEST_F(ObsTest, StderrSinkPrintsOneLineAtItsOwnThreshold) {
  EventLog& log = EventLog::global();
  const auto probe = [] {
    logEvent(LogLevel::kInfo, "obs_test", "stderr_probe",
             [](util::JsonObjectBuilder& fields) { fields.addInt("n", 3); });
  };
  const std::string expectedLine = "[info] obs_test.stderr_probe {\"n\":3}\n";

  ::testing::internal::CaptureStderr();
  probe();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  log.setStderrLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  probe();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), expectedLine);

  const std::string path = ::testing::TempDir() + "obs_test_stderr.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(path, "").isOk());
  log.configure(path, LogLevel::kInfo);
  flight::detail::setEnabledForTest(true);
  const std::size_t ringBefore = flightLogEvents("obs_test:stderr_probe");
  ::testing::internal::CaptureStderr();
  probe();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), expectedLine);
  log.configure("", LogLevel::kInfo);

  EXPECT_EQ(flightLogEvents("obs_test:stderr_probe"), ringBefore + 1);
  const util::Result<std::string> content = util::readFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(std::count(content.value().begin(), content.value().end(), '\n'),
            1);
  EXPECT_NE(content.value().find("\"event\":\"stderr_probe\""),
            std::string::npos);
  EXPECT_NE(content.value().find("\"fields\":{\"n\":3}"), std::string::npos);
}

// One thread, one id: a span, a log line and a flight event recorded on the
// same thread all carry obs::threadId().
TEST_F(ObsTest, TraceLogAndFlightShareOneThreadId) {
  Tracer::global().setEnabled(true);
  Tracer::global().clear();
  flight::detail::setEnabledForTest(true);
  const std::string path = ::testing::TempDir() + "obs_test_tid.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(path, "").isOk());
  EventLog::global().configure(path, LogLevel::kInfo);

  // A thread that only takes an id: a component numbering threads on its
  // own would now lag behind the shared id.
  std::thread([] { (void)threadId(); }).join();
  std::uint32_t tid = 0;
  std::thread worker([&] {
    tid = threadId();
    { Span span("obs_test_tid_span"); }
    logEvent(LogLevel::kInfo, "obs_test", "tid_probe");
  });
  worker.join();
  EventLog::global().configure("", LogLevel::kInfo);
  ASSERT_NE(tid, 0u);
  EXPECT_NE(tid, threadId());

  std::size_t spans = 0;
  for (const TraceEvent& event : Tracer::global().snapshotEvents()) {
    if (event.name != "obs_test_tid_span") continue;
    ++spans;
    EXPECT_EQ(event.tid, tid);
  }
  EXPECT_EQ(spans, 1u);

  const util::Result<std::string> content = util::readFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content.value().find("\"tid\":" + std::to_string(tid) + ","),
            std::string::npos);

  std::size_t flightEvents = 0;
  for (const flight::ThreadSnapshot& thread : flight::snapshot()) {
    if (thread.tid != tid) continue;
    for (const flight::SnapshotEvent& event : thread.events) {
      if (event.name != "obs_test:tid_probe") continue;
      ++flightEvents;
      EXPECT_EQ(event.tid, tid);
    }
  }
  EXPECT_EQ(flightEvents, 1u);
}

// Each record is appended with ONE O_APPEND write(2), so a reader tailing
// the file while N threads log concurrently must only ever observe whole
// lines — no interleaved fragments, no partial trailing record.
TEST_F(ObsTest, ConcurrentLogWritersNeverTearALine) {
  const std::string path =
      ::testing::TempDir() + "obs_test_concurrent_log.jsonl";
  std::remove(path.c_str());
  EventLog::global().configure(path, LogLevel::kInfo);

  constexpr int kWriters = 8;
  constexpr int kPerWriter = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> tornObservations{0};

  // `inFlight`: the file is still being appended to. A buffered read is
  // not atomic with respect to a concurrent O_APPEND write, so a live
  // reader can catch the last line half-copied; an unterminated final
  // fragment is then in flight, not torn (the rule the history and
  // postmortem loaders apply). Every complete line must still be whole,
  // and once the writers are done the file must end at a newline.
  const auto checkContent = [&](std::string_view content, bool inFlight) {
    if (inFlight) {
      content = content.substr(0, content.rfind('\n') + 1);
    } else if (!content.empty() && content.back() != '\n') {
      tornObservations.fetch_add(1);
      return;
    }
    std::size_t pos = 0;
    while (pos < content.size()) {
      const std::size_t eol = content.find('\n', pos);
      const std::string_view line(content.data() + pos, eol - pos);
      if (line.empty() || line.front() != '{' || line.back() != '}') {
        tornObservations.fetch_add(1);
      }
      pos = eol + 1;
    }
  };

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (const util::Result<std::string> content = util::readFile(path);
          content.ok()) {
        checkContent(content.value(), /*inFlight=*/true);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kPerWriter; ++i) {
        logEvent(LogLevel::kInfo, "torn_test", "w",
                 [&](util::JsonObjectBuilder& fields) {
                   fields.addInt("writer", w);
                   fields.addInt("i", i);
                 });
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(tornObservations.load(), 0);

  // Final state: every record arrived exactly once, all lines whole.
  const util::Result<std::string> content = util::readFile(path);
  ASSERT_TRUE(content.ok());
  checkContent(content.value(), /*inFlight=*/false);
  EXPECT_EQ(tornObservations.load(), 0);
  std::size_t records = 0;
  std::size_t pos = 0;
  while ((pos = content.value().find("\"component\":\"torn_test\"", pos)) !=
         std::string::npos) {
    ++records;
    pos += 1;
  }
  EXPECT_EQ(records, static_cast<std::size_t>(kWriters) * kPerWriter);
  EXPECT_EQ(EventLog::global().droppedWrites(), 0u);
}

// --- trace analytics ------------------------------------------------------

/// Hand-built span tree with known self times:
///   root [0,100)       self 10 (children cover 60+30)
///     childA [0,60)    self 60
///     childB [65,95)   self 10 (grand covers 20)
///       grand [70,90)  self 20
std::vector<TraceEvent> spanFixture() {
  std::vector<TraceEvent> events(4);
  events[0].name = "root";
  events[0].startNs = 0;
  events[0].durationNs = 100;
  events[0].id = 1;
  events[1].name = "childA";
  events[1].startNs = 0;
  events[1].durationNs = 60;
  events[1].id = 2;
  events[1].parentId = 1;
  events[2].name = "childB";
  events[2].startNs = 65;
  events[2].durationNs = 30;
  events[2].id = 3;
  events[2].parentId = 1;
  events[3].name = "grand";
  events[3].startNs = 70;
  events[3].durationNs = 20;
  events[3].id = 4;
  events[3].parentId = 3;
  return events;
}

TEST_F(ObsTest, SpanHotspotsRankBySelfTime) {
  const std::vector<SpanStats> hotspots = spanHotspots(spanFixture());
  ASSERT_EQ(hotspots.size(), 4u);
  EXPECT_EQ(hotspots[0].name, "childA");
  EXPECT_EQ(hotspots[0].selfNs, 60u);
  EXPECT_EQ(hotspots[1].name, "grand");
  EXPECT_EQ(hotspots[1].selfNs, 20u);
  // Equal self times (10) rank alphabetically: deterministic reports.
  EXPECT_EQ(hotspots[2].name, "childB");
  EXPECT_EQ(hotspots[3].name, "root");
  EXPECT_EQ(hotspots[3].totalNs, 100u);

  EXPECT_EQ(spanHotspots(spanFixture(), 2).size(), 2u);
}

// Pin the tie-break contract `sca_cli trace --summary` relies on: spans
// with equal self time rank by name, never by map/insertion order — the
// report is byte-stable for any event ordering of the same trace.
TEST_F(ObsTest, SpanHotspotTiesBreakBySpanNameNotInsertionOrder) {
  const auto makeEvent = [](const char* name, std::uint64_t id) {
    TraceEvent event;
    event.name = name;
    event.startNs = id * 1000;  // disjoint roots: selfNs == durationNs
    event.durationNs = 50;
    event.id = id;
    return event;
  };
  std::vector<TraceEvent> events = {makeEvent("zeta", 1),
                                    makeEvent("alpha", 2),
                                    makeEvent("mid", 3)};
  const std::vector<std::string> expected = {"alpha", "mid", "zeta"};
  do {
    const std::vector<SpanStats> hotspots = spanHotspots(events);
    ASSERT_EQ(hotspots.size(), 3u);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(hotspots[i].name, expected[i]);
      EXPECT_EQ(hotspots[i].selfNs, 50u);
    }
  } while (std::next_permutation(
      events.begin(), events.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.id < b.id; }));
}

TEST_F(ObsTest, CriticalPathDescendsIntoTheLastFinishingChild) {
  const std::vector<CriticalPathStep> path = criticalPath(spanFixture());
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].name, "root");
  EXPECT_EQ(path[1].name, "childB");  // ends at 95, after childA's 60
  EXPECT_EQ(path[2].name, "grand");
  EXPECT_EQ(path[1].selfNs, 10u);
  EXPECT_EQ(path[2].durationNs, 20u);
  EXPECT_TRUE(criticalPath({}).empty());
}

TEST_F(ObsTest, ChromeTraceParsesBackToTheSameEvents) {
  std::vector<TraceEvent> events = spanFixture();
  for (TraceEvent& e : events) {  // µs-grid values round-trip exactly
    e.startNs *= 1000;
    e.durationNs *= 1000;
    e.tid = 2;
  }
  const util::Result<std::vector<TraceEvent>> parsed =
      parseChromeTrace(chromeTraceJson(events));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed.value()[i].name, events[i].name);
    EXPECT_EQ(parsed.value()[i].startNs, events[i].startNs);
    EXPECT_EQ(parsed.value()[i].durationNs, events[i].durationNs);
    EXPECT_EQ(parsed.value()[i].tid, events[i].tid);
    EXPECT_EQ(parsed.value()[i].id, events[i].id);
    EXPECT_EQ(parsed.value()[i].parentId, events[i].parentId);
  }

  EXPECT_FALSE(parseChromeTrace("{\"notATrace\":[]}").ok());
}

// Satellite: the checkpoint inspector behind `sca_cli checkpoints`.
TEST_F(ObsTest, CheckpointInspectorClassifiesFiles) {
  const std::string dir = ::testing::TempDir() + "obs_test_ckpt";
  llm::ChainKey key;
  key.year = 2018;
  key.settingIndex = 1;
  key.settingLabel = "+C";
  key.challenge = 2;
  key.steps = 3;
  key.originHash = 0xabcdef0123456789ull;
  key.faultRate = 0.05;
  ASSERT_TRUE(
      llm::writeChainCheckpoint(dir, key, {"int a;", "int b;", "int c;"})
          .isOk());

  const std::string path = llm::chainCheckpointPath(dir, key);
  const llm::CheckpointInfo good = llm::inspectChainCheckpoint(path);
  EXPECT_TRUE(good.headerOk);
  EXPECT_TRUE(good.complete);
  EXPECT_EQ(good.verdict, "ok");
  EXPECT_EQ(good.year, 2018);
  EXPECT_EQ(good.setting, "+C");
  EXPECT_EQ(good.steps, 3);
  EXPECT_EQ(good.entries, 3u);

  // Truncate after the second record: header fine, chain incomplete.
  const util::Result<std::string> full = util::readFile(path);
  ASSERT_TRUE(full.ok());
  std::string truncated = full.value();
  truncated.resize(truncated.rfind("{\"step\":3"));
  const std::string shortPath = dir + "/chain_truncated.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(shortPath, truncated).isOk());
  const llm::CheckpointInfo partial = llm::inspectChainCheckpoint(shortPath);
  EXPECT_TRUE(partial.headerOk);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.verdict, "incomplete: 2/3 steps");

  const std::string badPath = dir + "/chain_bad.jsonl";
  ASSERT_TRUE(
      util::atomicWriteFile(badPath, "{\"magic\":\"wrong\"}\n").isOk());
  EXPECT_EQ(llm::inspectChainCheckpoint(badPath).verdict,
            "bad magic \"wrong\"");

  const llm::CheckpointInfo missing =
      llm::inspectChainCheckpoint(dir + "/chain_missing.jsonl");
  EXPECT_FALSE(missing.headerOk);
  EXPECT_EQ(missing.verdict.rfind("unreadable:", 0), 0u);
}

}  // namespace
}  // namespace sca::obs
