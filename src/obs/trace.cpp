#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>

#include "obs/flight.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace sca::obs {
namespace {

/// Innermost live span on this thread (0 = none) — the parent for the
/// next span constructed here. Spans are strictly LIFO per thread, so a
/// single slot suffices.
thread_local std::uint64_t tlsCurrentSpan = 0;

/// Per-thread span sequence number; combined with the tid for unique ids.
thread_local std::uint64_t tlsSpanSequence = 0;

std::atomic<std::uint32_t> gNextThreadId{1};
thread_local std::uint32_t tlsThreadId = 0;

}  // namespace

std::uint32_t threadId() noexcept {
  if (tlsThreadId == 0) {
    tlsThreadId = gNextThreadId.fetch_add(1, std::memory_order_relaxed);
  }
  return tlsThreadId;
}

struct Tracer::Buffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
};

struct Tracer::BufferHandle {
  Tracer* tracer = nullptr;
  Buffer* buffer = nullptr;

  ~BufferHandle() {
    if (tracer != nullptr && buffer != nullptr) tracer->detachBuffer(buffer);
  }
};

struct Tracer::Impl {
  mutable std::mutex mutex;
  std::vector<Buffer*> buffers;       // live threads
  std::vector<TraceEvent> retired;    // events from exited threads
  std::atomic<std::uint64_t> dropped{0};
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::string configuredPath;
};

Tracer::Tracer() : impl_(new Impl) {
  if (const char* path = std::getenv("SCA_TRACE");
      path != nullptr && *path != '\0') {
    impl_->configuredPath = path;
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Tracer::~Tracer() = default;  // never runs for global()

Tracer& Tracer::global() {
  // Intentionally leaked, like the metrics registry: worker threads detach
  // their buffers during static teardown.
  static Tracer* instance = new Tracer();
  return *instance;
}

const std::string& Tracer::configuredPath() const noexcept {
  return impl_->configuredPath;
}

Tracer::Buffer& Tracer::localBuffer() {
  thread_local BufferHandle handle;
  if (handle.buffer == nullptr) {
    handle.tracer = this;
    handle.buffer = new Buffer();
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->buffers.push_back(handle.buffer);
  }
  return *handle.buffer;
}

void Tracer::detachBuffer(Buffer* buffer) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  {
    std::lock_guard<std::mutex> bufferLock(buffer->mutex);
    impl_->retired.insert(impl_->retired.end(),
                          std::make_move_iterator(buffer->events.begin()),
                          std::make_move_iterator(buffer->events.end()));
  }
  impl_->buffers.erase(
      std::remove(impl_->buffers.begin(), impl_->buffers.end(), buffer),
      impl_->buffers.end());
  delete buffer;
}

std::uint64_t Tracer::currentSpanId() noexcept { return tlsCurrentSpan; }

std::uint64_t Tracer::nowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - impl_->epoch)
          .count());
}

void Tracer::record(TraceEvent event) {
  Buffer& buffer = localBuffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    impl_->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.tid = threadId();
  buffer.events.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::snapshotEvents() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    out = impl_->retired;
    for (Buffer* buffer : impl_->buffers) {
      std::lock_guard<std::mutex> bufferLock(buffer->mutex);
      out.insert(out.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.startNs != b.startNs) return a.startNs < b.startNs;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.id < b.id;
            });
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->retired.clear();
  for (Buffer* buffer : impl_->buffers) {
    std::lock_guard<std::mutex> bufferLock(buffer->mutex);
    buffer->events.clear();
  }
  impl_->dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t Tracer::droppedEvents() const noexcept {
  return impl_->dropped.load(std::memory_order_relaxed);
}

util::Status Tracer::writeChromeTrace(const std::string& path) const {
  return util::atomicWriteFile(path, chromeTraceJson(snapshotEvents()));
}

Span::Span(std::string_view name, const char* category) {
  Tracer& tracer = Tracer::global();
  const bool traceOn = tracer.enabled();
  const bool flightOn = flight::enabled();
  if (!traceOn && !flightOn) return;
  name_ = std::string(name);
  category_ = category;
  startNs_ = tracer.nowNs();
  if (traceOn) {
    active_ = true;
    parentId_ = tlsCurrentSpan;
    // The thread id in the high bits keeps ids unique across threads
    // without any shared counter.
    id_ = (static_cast<std::uint64_t>(threadId()) << 32) |
          (++tlsSpanSequence & 0xffffffffULL);
    tlsCurrentSpan = id_;
  }
  if (flightOn) {
    flightActive_ = true;
    flight::spanBegin(name_);
  }
}

Span::~Span() {
  if (flightActive_) {
    flight::spanEnd(name_, Tracer::global().nowNs() - startNs_);
  }
  if (!active_) return;
  tlsCurrentSpan = parentId_;
  Tracer& tracer = Tracer::global();
  TraceEvent event;
  event.name = std::move(name_);
  event.category = category_;
  event.startNs = startNs_;
  event.durationNs = tracer.nowNs() - startNs_;
  event.id = id_;
  event.parentId = parentId_;
  tracer.record(std::move(event));
}

namespace {

/// Microseconds with nanosecond resolution, Chrome's expected unit.
std::string formatUs(std::uint64_t ns) {
  return util::formatDouble(static_cast<double>(ns) / 1000.0, 3);
}

}  // namespace

std::string chromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"" + util::jsonEscape(e.name) + "\",\"cat\":\"" +
           util::jsonEscape(e.category == nullptr ? "phase" : e.category) +
           "\",\"ph\":\"X\",\"ts\":" + formatUs(e.startNs) +
           ",\"dur\":" + formatUs(e.durationNs) +
           ",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"args\":{\"id\":" + std::to_string(e.id) +
           ",\"parent\":" + std::to_string(e.parentId) + "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

util::Status flushConfiguredTrace() {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled() || tracer.configuredPath().empty()) {
    return util::Status::ok();
  }
  return tracer.writeChromeTrace(tracer.configuredPath());
}

}  // namespace sca::obs
