// Structured event log: leveled, span-correlated diagnostics with two
// sinks, a JSONL file and stderr.
//
// The metrics registry answers "how many"; traces answer "how long"; this
// log answers "what happened, in order" — the retry that fired, the
// breaker that opened, the cache entry that was evicted, the checkpoint
// that resumed a chain, the CV fold that started. Each file record is one
// self-contained JSON line:
//
//   {"ts_ns":182734,"level":"info","tid":2,"span":"000000020000000d",
//    "component":"llm","event":"retry",
//    "fields":{"attempt":2,"delay_s":1.125,"error":"timeout"}}
//
//   ts_ns      nanoseconds since the tracer epoch (the same clock spans
//              use, so log lines and trace spans share a timeline)
//   tid        obs::threadId(), the id the trace and flight rings use too
//   span       innermost live trace span on the emitting thread as 16 hex
//              chars ("0" * 16 = none) — join key into SCA_TRACE output
//   fields     event-specific payload, omitted when empty
//
// The same record on stderr is one human-readable line:
//
//   [info] llm.retry {"attempt":2,"delay_s":1.125,"error":"timeout"}
//
// Sinks: SCA_LOG=path names the file; SCA_LOG_LEVEL is one of
// debug|info|warn|error (default info). The stderr sink is always on with
// its own threshold, kWarn unless a program calls setStderrLevel (the
// table benches lower it to kInfo to show progress). enabledFor() is one
// relaxed atomic load of the lowest live threshold, and every logEvent()
// call site builds its fields lambda only after that check passes — a
// record no sink wants costs no formatting, no allocation, no clock read.
//
// Writing: each record goes to each sink with a single write(2) (the file
// descriptor is O_APPEND), so concurrent threads (and processes sharing
// the file) interleave whole lines, never partial ones. Failed writes are
// counted, not thrown: diagnostics must never take down the run they
// describe.
//
// Determinism: the log observes, it never participates — no RNG draws, no
// branching on log state in computation paths — so every table and stable
// metric is byte-identical with logging on or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/flight.hpp"
#include "util/strings.hpp"

namespace sca::obs {

/// kOff is a threshold only: a sink set to it takes no records.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4
};

/// "debug"/"info"/"warn"/"error" (case-insensitive); fallback on anything
/// else.
[[nodiscard]] LogLevel parseLogLevel(std::string_view text,
                                     LogLevel fallback = LogLevel::kInfo);
[[nodiscard]] std::string_view logLevelName(LogLevel level) noexcept;

class EventLog {
 public:
  /// The process-global log, configured from SCA_LOG / SCA_LOG_LEVEL on
  /// first use (created on first use, never destroyed).
  [[nodiscard]] static EventLog& global();

  /// True when some sink takes records at `level`: the one check hot
  /// paths pay for a record nobody wants.
  [[nodiscard]] bool enabledFor(LogLevel level) const noexcept {
    return static_cast<int>(level) >= gate_.load(std::memory_order_relaxed);
  }

  /// Hands one record to every sink whose threshold it meets. `fieldsJson`
  /// is a raw JSON object ("" = no fields). Callers normally go through
  /// logEvent() below, which performs the enabledFor gate.
  void write(LogLevel level, std::string_view component,
             std::string_view event, std::string_view fieldsJson);

  /// Re-points the file sink (tests; "" disables it). Closes any open
  /// descriptor.
  void configure(std::string path, LogLevel minLevel);

  /// Threshold of the stderr sink (kWarn by default; kOff silences it).
  void setStderrLevel(LogLevel level);

  [[nodiscard]] const std::string& path() const;
  [[nodiscard]] std::uint64_t droppedWrites() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  EventLog();
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void updateGateLocked();

  struct Impl;
  Impl* impl_;  // immortal alongside the log
  std::atomic<int> fileLevel_{static_cast<int>(LogLevel::kOff)};
  std::atomic<int> stderrLevel_{static_cast<int>(LogLevel::kWarn)};
  std::atomic<int> gate_{static_cast<int>(LogLevel::kWarn)};  // min of both
  std::atomic<std::uint64_t> dropped_{0};
};

/// Call-site helper: `fill` receives a JsonObjectBuilder for the event's
/// fields and runs only when some sink takes the level — a record nobody
/// wants costs exactly the enabledFor() load.
template <typename F>
inline void logEvent(LogLevel level, std::string_view component,
                     std::string_view event, F&& fill) {
  // The flight recorder sees every log call site regardless of the sinks'
  // thresholds, so retries, breaker trips, evictions, checkpoints and fold
  // progress land in the crash rings.
  if (flight::enabled()) {
    flight::noteLog(static_cast<std::uint8_t>(level), component, event);
  }
  EventLog& log = EventLog::global();
  if (!log.enabledFor(level)) return;
  util::JsonObjectBuilder fields;
  std::forward<F>(fill)(fields);
  log.write(level, component, event, fields.str());
}

inline void logEvent(LogLevel level, std::string_view component,
                     std::string_view event) {
  if (flight::enabled()) {
    flight::noteLog(static_cast<std::uint8_t>(level), component, event);
  }
  EventLog& log = EventLog::global();
  if (!log.enabledFor(level)) return;
  log.write(level, component, event, {});
}

}  // namespace sca::obs
