#include "obs/log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <mutex>

#include "obs/trace.hpp"

namespace sca::obs {
namespace {

/// One write(2) for the whole line, so records from concurrent emitters
/// (threads or processes) interleave line by line. False on failure.
bool writeLine(int fd, std::string_view line) {
  ssize_t n;
  do {
    n = ::write(fd, line.data(), line.size());
  } while (n < 0 && errno == EINTR);
  return n >= 0 && static_cast<std::size_t>(n) == line.size();
}

}  // namespace

LogLevel parseLogLevel(std::string_view text, LogLevel fallback) {
  const std::string lowered = util::toLower(text);
  if (lowered == "debug") return LogLevel::kDebug;
  if (lowered == "info") return LogLevel::kInfo;
  if (lowered == "warn" || lowered == "warning") return LogLevel::kWarn;
  if (lowered == "error") return LogLevel::kError;
  return fallback;
}

std::string_view logLevelName(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "info";
}

struct EventLog::Impl {
  std::mutex mutex;  // guards path/fd lifecycle, not the write itself
  std::string path;
  int fd = -1;

  void closeLocked() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  /// Opens (or reuses) the O_APPEND descriptor. -1 on failure.
  int descriptorLocked() {
    if (fd >= 0 || path.empty()) return fd;
    std::error_code ec;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    return fd;
  }
};

EventLog::EventLog() : impl_(new Impl) {
  const char* path = std::getenv("SCA_LOG");
  if (path == nullptr || *path == '\0') return;
  LogLevel level = LogLevel::kInfo;
  if (const char* name = std::getenv("SCA_LOG_LEVEL");
      name != nullptr && *name != '\0') {
    level = parseLogLevel(name);
  }
  configure(path, level);
}

EventLog::~EventLog() = default;  // never runs for global()

EventLog& EventLog::global() {
  // Intentionally leaked, like the registry and the tracer: worker threads
  // may emit events during static teardown.
  static EventLog* instance = new EventLog();
  return *instance;
}

const std::string& EventLog::path() const { return impl_->path; }

void EventLog::updateGateLocked() {
  gate_.store(std::min(fileLevel_.load(std::memory_order_relaxed),
                       stderrLevel_.load(std::memory_order_relaxed)),
              std::memory_order_relaxed);
}

void EventLog::configure(std::string path, LogLevel minLevel) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->closeLocked();
  impl_->path = std::move(path);
  fileLevel_.store(static_cast<int>(impl_->path.empty() ? LogLevel::kOff
                                                        : minLevel),
                   std::memory_order_relaxed);
  updateGateLocked();
}

void EventLog::setStderrLevel(LogLevel level) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  stderrLevel_.store(static_cast<int>(level), std::memory_order_relaxed);
  updateGateLocked();
}

void EventLog::write(LogLevel level, std::string_view component,
                     std::string_view event, std::string_view fieldsJson) {
  const bool hasFields = !fieldsJson.empty() && fieldsJson != "{}";
  if (static_cast<int>(level) >=
      stderrLevel_.load(std::memory_order_relaxed)) {
    std::string line;
    line.reserve(component.size() + event.size() + fieldsJson.size() + 12);
    line += '[';
    line += logLevelName(level);
    line += "] ";
    line += component;
    line += '.';
    line += event;
    if (hasFields) {
      line += ' ';
      line += fieldsJson;
    }
    line += '\n';
    if (!writeLine(STDERR_FILENO, line)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (static_cast<int>(level) < fileLevel_.load(std::memory_order_relaxed)) {
    return;
  }

  util::JsonObjectBuilder record;
  record.addUint("ts_ns", Tracer::global().nowNs());
  record.add("level", logLevelName(level));
  record.addUint("tid", threadId());
  record.add("span", util::toHex64(Tracer::currentSpanId()));
  record.add("component", component);
  record.add("event", event);
  if (hasFields) record.addRaw("fields", fieldsJson);
  std::string line = record.str();
  line += '\n';

  std::lock_guard<std::mutex> lock(impl_->mutex);
  const int fd = impl_->descriptorLocked();
  if (fd < 0 || !writeLine(fd, line)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace sca::obs
