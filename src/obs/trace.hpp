// Span tracer: RAII scopes -> per-thread event buffers -> Chrome
// trace_event JSON.
//
// A Span records name, category, parent linkage (the innermost live span
// on the same thread), the thread's obs::threadId() and steady-clock
// start/duration in nanoseconds since the tracer epoch. Completed spans
// land in the recording thread's own buffer (one brief uncontended mutex
// per span exit — spans are phase/task granularity, not per-token), and
// writeChromeTrace() merges the buffers into the JSON that
// chrome://tracing and Perfetto load, written crash-safely via
// util::atomicWriteFile.
//
// Tracing is off unless the SCA_TRACE environment variable names an
// output path (or a test calls setEnabled). While off, constructing a
// Span is a single relaxed flag load — the instrumentation can stay in
// every hot path permanently.
//
// Timestamps are wall-clock and therefore excluded from all deterministic
// output: traces and the manifest's span aggregates are diagnostics, never
// part of the byte-comparable metrics section.
//
// Buffers are capped (kMaxEventsPerThread); overflow drops the new event
// and counts it, so a runaway region degrades the trace instead of memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace sca::obs {

/// Dense per-thread id (1, 2, ...), assigned on the thread's first call.
/// The tracer, the event log and the flight rings all stamp this one id,
/// so a log line's `tid` names the same thread as the Chrome trace and
/// the postmortem timeline.
[[nodiscard]] std::uint32_t threadId() noexcept;

struct TraceEvent {
  std::string name;
  const char* category = "phase";  // static strings only
  std::uint64_t startNs = 0;       // since the tracer epoch (steady clock)
  std::uint64_t durationNs = 0;
  std::uint32_t tid = 0;           // threadId() of the recording thread
  std::uint64_t id = 0;            // unique non-zero span id
  std::uint64_t parentId = 0;      // 0 = root (no enclosing span)
};

class Tracer {
 public:
  static constexpr std::size_t kMaxEventsPerThread = 65536;

  /// The process-global tracer (created on first use, never destroyed).
  [[nodiscard]] static Tracer& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void setEnabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// The SCA_TRACE value captured at first use ("" when unset).
  [[nodiscard]] const std::string& configuredPath() const noexcept;

  void record(TraceEvent event);

  /// All completed spans so far, merged and sorted by (startNs, tid, id).
  [[nodiscard]] std::vector<TraceEvent> snapshotEvents() const;

  /// Drops every recorded event (buffers stay attached). For tests.
  void clear();

  [[nodiscard]] std::uint64_t droppedEvents() const noexcept;

  /// Steady-clock nanoseconds since the tracer epoch.
  [[nodiscard]] std::uint64_t nowNs() const;

  /// Id of the innermost live span on the calling thread (0 = none). The
  /// event log stamps this on every record so log lines can be joined to
  /// the trace they were emitted under.
  [[nodiscard]] static std::uint64_t currentSpanId() noexcept;

  /// Atomically writes the Chrome trace JSON for every event so far.
  [[nodiscard]] util::Status writeChromeTrace(const std::string& path) const;

 private:
  struct Buffer;
  struct BufferHandle;
  struct Impl;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] Buffer& localBuffer();
  void detachBuffer(Buffer* buffer);

  friend class Span;
  std::atomic<bool> enabled_{false};
  Impl* impl_;
};

/// RAII span. Near-free when tracing is disabled at construction.
class Span {
 public:
  explicit Span(std::string_view name, const char* category = "phase");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing was disabled at construction.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::string name_;
  const char* category_ = nullptr;
  std::uint64_t startNs_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parentId_ = 0;
  bool active_ = false;        // feeding the tracer
  bool flightActive_ = false;  // feeding the flight recorder
};

/// Renders events as a Chrome trace_event JSON document (ts/dur in
/// microseconds, pid 1, args carrying the span/parent ids).
[[nodiscard]] std::string chromeTraceJson(
    const std::vector<TraceEvent>& events);

/// Writes the trace to the SCA_TRACE path when tracing is enabled and a
/// path is configured; OK no-op otherwise.
[[nodiscard]] util::Status flushConfiguredTrace();

}  // namespace sca::obs
