// Span recorder and per-layer accounting for the traced benchmark runs.
//
// A span marks one call into a library layer: its name is "<layer>.<op>"
// (ml.fit, features.extract, ...), it has a start and an end on one
// steady clock, the span that caused it, and an optional item count (rows,
// trees, samples). Spans are kept in memory and reduced after each phase;
// nothing is written while the timed work runs.
//
// Accounting over one phase (a root span such as "bench.iteration"):
//   busy  sum of the durations of a layer's outermost spans (a span whose
//         parent is of another layer); concurrent spans add up;
//   wall  length of the union of those intervals;
//   self  exclusive time: every instant of the root is shared equally by
//         the spans that are active then and have no active child.
//
// The self times of all layers add up to the root's duration by
// construction, so that sum says nothing by itself. It accounts for all of
// the phase only when the span tree is whole, which the reduction counts:
// spans recorded in the phase but outside the root's subtree (a pool task
// opened without its parent), spans never closed, and spans that are not
// inside their parent's interval (work that outlived its caller). Each of
// those hides time from the accounting; the benchmark fails a phase that
// has any.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = none
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t items = 0;
  bool closed = false;

  [[nodiscard]] std::string_view layer() const;
  [[nodiscard]] double seconds() const;
};

/// What a phase recorded: its spans and the counts noted beside them.
struct Recorded {
  std::vector<SpanRecord> spans;
  std::map<std::string, std::uint64_t> counts;
};

/// Process-wide span store. Disabled by default: a disabled recorder makes
/// Span a no-op, which is how the untraced runs stay untraced.
class SpanRecorder {
 public:
  static SpanRecorder& global();

  void setEnabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  std::uint32_t open(std::string_view name, std::uint32_t parent);
  void close(std::uint32_t id, std::uint64_t items);
  /// Adds `value` to a named count (no-op while disabled).
  void count(std::string_view name, std::uint64_t value);

  /// Everything recorded so far, then cleared.
  Recorded take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;  // guards spans_, counts_ and nextId_
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::uint64_t> counts_;
  std::uint32_t nextId_ = 1;
};

/// RAII span. The parent defaults to the innermost open span of this
/// thread; work handed to a pool task passes its parent explicitly.
class Span {
 public:
  explicit Span(std::string_view name);
  Span(std::string_view name, std::uint32_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void setItems(std::uint64_t items) { items_ = items; }
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_ = 0;
  std::uint32_t previous_ = 0;
  std::uint64_t items_ = 0;
};

struct LayerTimes {
  double busy = 0;
  double wall = 0;
  double self = 0;
};

struct PhaseAccount {
  double rootSeconds = 0;                 // duration of the root span
  std::map<std::string, LayerTimes> layers;
  /// Per span name: summed duration, covered time (union), number of
  /// spans, summed items.
  std::map<std::string, double> nameSeconds;
  std::map<std::string, double> nameWall;
  std::map<std::string, std::uint64_t> nameCount;
  std::map<std::string, std::uint64_t> nameItems;
  /// core.fold durations and their queue waits (fold start minus the
  /// start of the runtime span that submitted it).
  std::vector<double> foldSeconds;
  double queueWait = 0;
  /// Defects of the span tree; all must be 0 for the times to be whole.
  std::size_t strays = 0;    // recorded spans outside the root's subtree
  std::size_t unclosed = 0;  // spans of the subtree never closed
  std::size_t escaped = 0;   // spans not inside their parent's interval
};

/// Reduces the spans under the root span `rootId` (which must be among
/// `spans`). Spans outside the root's subtree are counted as strays and
/// otherwise ignored.
[[nodiscard]] PhaseAccount account(const std::vector<SpanRecord>& spans,
                                   std::uint32_t rootId);

}  // namespace perfbench
