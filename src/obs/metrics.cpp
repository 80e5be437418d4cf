#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "util/strings.hpp"

namespace sca::obs {
namespace {

/// Hard cap on cells per shard (instrument names are a fixed, small set in
/// this codebase; phases add a handful more). 4096 cells = 32 KiB/thread.
constexpr std::uint32_t kMaxCells = 4096;

std::uint64_t packDouble(double value) { return std::bit_cast<std::uint64_t>(value); }
double unpackDouble(std::uint64_t bits) { return std::bit_cast<double>(bits); }

}  // namespace

std::uint64_t HistogramSnapshot::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts) sum += c;
  return sum;
}

bool MetricsSnapshot::stableEmpty() const {
  return counters.empty() && histograms.empty();
}

enum class InstrumentType { kCounter, kGauge, kHistogram };

struct MetricsRegistry::Instrument {
  std::string name;
  InstrumentType type = InstrumentType::kCounter;
  Stability stability = Stability::kStable;
  GaugeKind gaugeKind = GaugeKind::kSum;
  std::uint32_t firstCell = 0;
  std::uint32_t cellCount = 1;
  std::vector<double> bounds;  // histograms only; address is stable (deque)
};

/// One thread's cells. Owner-only writes (relaxed load+store — no RMW, no
/// lock prefix); the snapshot thread reads the same atomics relaxed, so
/// concurrent recording is race-free without ever contending.
struct MetricsRegistry::Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCells> cells{};
};

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::deque<Instrument> instruments;                    // stable addresses
  std::map<std::string, std::size_t, std::less<>> byName;
  std::vector<Shard*> shards;                            // live threads
  std::array<std::uint64_t, kMaxCells> retired{};        // exited threads
  std::uint32_t nextCell = 0;

  /// Raw merged bit pattern of one cell; `kind` selects the fold
  /// (requires mutex held so the shard list is stable).
  [[nodiscard]] std::uint64_t mergeCell(std::uint32_t cell,
                                        InstrumentType type,
                                        GaugeKind kind) const {
    if (type == InstrumentType::kGauge) {
      double merged = unpackDouble(retired[cell]);
      for (const Shard* shard : shards) {
        const double v = unpackDouble(
            shard->cells[cell].load(std::memory_order_relaxed));
        merged = kind == GaugeKind::kMax ? std::max(merged, v) : merged + v;
      }
      return packDouble(merged);
    }
    std::uint64_t merged = retired[cell];
    for (const Shard* shard : shards) {
      merged += shard->cells[cell].load(std::memory_order_relaxed);
    }
    return merged;
  }
};

/// Per-thread attachment; folds the shard into `retired` on thread exit.
struct MetricsRegistry::ShardHandle {
  MetricsRegistry* registry = nullptr;
  Shard* shard = nullptr;

  ~ShardHandle() {
    if (registry != nullptr && shard != nullptr) registry->detachShard(shard);
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry::~MetricsRegistry() = default;  // never runs for global()

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: worker threads may detach shards during static
  // teardown, after function-local statics would have been destroyed.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry::Shard& MetricsRegistry::localShard() {
  thread_local ShardHandle handle;
  if (handle.shard == nullptr) {
    handle.registry = this;
    handle.shard = new Shard();
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shards.push_back(handle.shard);
  }
  return *handle.shard;
}

void MetricsRegistry::detachShard(Shard* shard) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  // Fold cell-by-cell with the owning instrument's merge semantics.
  for (const Instrument& instrument : impl_->instruments) {
    for (std::uint32_t c = instrument.firstCell;
         c < instrument.firstCell + instrument.cellCount; ++c) {
      const std::uint64_t value =
          shard->cells[c].load(std::memory_order_relaxed);
      if (instrument.type == InstrumentType::kGauge) {
        const double v = unpackDouble(value);
        const double prior = unpackDouble(impl_->retired[c]);
        impl_->retired[c] =
            packDouble(instrument.gaugeKind == GaugeKind::kMax
                           ? std::max(prior, v)
                           : prior + v);
      } else {
        impl_->retired[c] += value;
      }
    }
  }
  impl_->shards.erase(
      std::remove(impl_->shards.begin(), impl_->shards.end(), shard),
      impl_->shards.end());
  delete shard;
}

namespace {

[[noreturn]] void typeConflict(std::string_view name) {
  throw std::logic_error("obs: instrument '" + std::string(name) +
                         "' re-registered as a different type");
}

}  // namespace

Counter MetricsRegistry::counter(std::string_view name, Stability stability) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (const auto it = impl_->byName.find(name); it != impl_->byName.end()) {
    const Instrument& existing = impl_->instruments[it->second];
    if (existing.type != InstrumentType::kCounter) typeConflict(name);
    return Counter(this, existing.firstCell);
  }
  if (impl_->nextCell + 1 > kMaxCells) {
    throw std::length_error("obs: metric cell budget exhausted");
  }
  Instrument instrument;
  instrument.name = std::string(name);
  instrument.type = InstrumentType::kCounter;
  instrument.stability = stability;
  instrument.firstCell = impl_->nextCell++;
  impl_->byName.emplace(instrument.name, impl_->instruments.size());
  impl_->instruments.push_back(std::move(instrument));
  return Counter(this, impl_->instruments.back().firstCell);
}

Gauge MetricsRegistry::gauge(std::string_view name, GaugeKind kind) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (const auto it = impl_->byName.find(name); it != impl_->byName.end()) {
    const Instrument& existing = impl_->instruments[it->second];
    if (existing.type != InstrumentType::kGauge) typeConflict(name);
    return Gauge(this, existing.firstCell, existing.gaugeKind);
  }
  if (impl_->nextCell + 1 > kMaxCells) {
    throw std::length_error("obs: metric cell budget exhausted");
  }
  Instrument instrument;
  instrument.name = std::string(name);
  instrument.type = InstrumentType::kGauge;
  instrument.stability = Stability::kRuntime;
  instrument.gaugeKind = kind;
  instrument.firstCell = impl_->nextCell++;
  impl_->byName.emplace(instrument.name, impl_->instruments.size());
  impl_->instruments.push_back(std::move(instrument));
  const Instrument& stored = impl_->instruments.back();
  return Gauge(this, stored.firstCell, stored.gaugeKind);
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds,
                                     Stability stability) {
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument("obs: histogram bounds must be sorted and "
                                "non-empty");
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (const auto it = impl_->byName.find(name); it != impl_->byName.end()) {
    const Instrument& existing = impl_->instruments[it->second];
    if (existing.type != InstrumentType::kHistogram) typeConflict(name);
    return Histogram(this, existing.firstCell, &existing.bounds);
  }
  const auto cellCount = static_cast<std::uint32_t>(bounds.size() + 1);
  if (impl_->nextCell + cellCount > kMaxCells) {
    throw std::length_error("obs: metric cell budget exhausted");
  }
  Instrument instrument;
  instrument.name = std::string(name);
  instrument.type = InstrumentType::kHistogram;
  instrument.stability = stability;
  instrument.firstCell = impl_->nextCell;
  instrument.cellCount = cellCount;
  instrument.bounds = std::move(bounds);
  impl_->nextCell += cellCount;
  impl_->byName.emplace(instrument.name, impl_->instruments.size());
  impl_->instruments.push_back(std::move(instrument));
  const Instrument& stored = impl_->instruments.back();
  return Histogram(this, stored.firstCell, &stored.bounds);
}

void MetricsRegistry::bumpCounterCell(std::uint32_t cell, std::uint64_t n) {
  std::atomic<std::uint64_t>& slot = localShard().cells[cell];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void MetricsRegistry::recordGaugeCell(std::uint32_t cell, double value,
                                      GaugeKind kind) {
  std::atomic<std::uint64_t>& slot = localShard().cells[cell];
  const double prior = unpackDouble(slot.load(std::memory_order_relaxed));
  const double next =
      kind == GaugeKind::kMax ? std::max(prior, value) : prior + value;
  slot.store(packDouble(next), std::memory_order_relaxed);
}

void Counter::add(std::uint64_t n) const {
  if (registry_ == nullptr || n == 0) return;
  registry_->bumpCounterCell(cell_, n);
}

void Gauge::add(double value) const {
  if (registry_ == nullptr || kind_ != GaugeKind::kSum) return;
  registry_->recordGaugeCell(cell_, value, GaugeKind::kSum);
}

void Gauge::recordMax(double value) const {
  if (registry_ == nullptr || kind_ != GaugeKind::kMax) return;
  registry_->recordGaugeCell(cell_, value, GaugeKind::kMax);
}

void Histogram::observe(double value) const {
  if (registry_ == nullptr) return;
  // Bucket i counts bounds[i-1] < value <= bounds[i]; the final cell is
  // the overflow bucket for value > bounds.back().
  const auto it = std::lower_bound(bounds_->begin(), bounds_->end(), value);
  const auto index = static_cast<std::uint32_t>(it - bounds_->begin());
  registry_->bumpCounterCell(firstCell_ + index, 1);
}

MetricsSnapshot MetricsRegistry::snapshot(Scope /*scope*/) const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const Instrument& instrument : impl_->instruments) {
    switch (instrument.type) {
      case InstrumentType::kCounter: {
        const std::uint64_t value = impl_->mergeCell(
            instrument.firstCell, instrument.type, instrument.gaugeKind);
        if (value == 0) break;
        (instrument.stability == Stability::kStable
             ? out.counters
             : out.runtimeCounters)[instrument.name] = value;
        break;
      }
      case InstrumentType::kGauge: {
        const double value = unpackDouble(impl_->mergeCell(
            instrument.firstCell, instrument.type, instrument.gaugeKind));
        if (value == 0.0) break;
        out.gauges[instrument.name] = value;
        break;
      }
      case InstrumentType::kHistogram: {
        HistogramSnapshot histogram;
        histogram.bounds = instrument.bounds;
        histogram.counts.reserve(instrument.cellCount);
        for (std::uint32_t c = instrument.firstCell;
             c < instrument.firstCell + instrument.cellCount; ++c) {
          histogram.counts.push_back(
              impl_->mergeCell(c, instrument.type, instrument.gaugeKind));
        }
        if (histogram.total() == 0) break;
        (instrument.stability == Stability::kStable
             ? out.histograms
             : out.runtimeHistograms)[instrument.name] = std::move(histogram);
        break;
      }
    }
  }
  return out;
}

std::uint64_t MetricsRegistry::counterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->byName.find(name);
  if (it == impl_->byName.end()) return 0;
  const Instrument& instrument = impl_->instruments[it->second];
  if (instrument.type != InstrumentType::kCounter) return 0;
  return impl_->mergeCell(instrument.firstCell, instrument.type,
                          instrument.gaugeKind);
}

namespace {

void appendCounterObject(std::string& out,
                         const std::map<std::string, std::uint64_t>& values) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out += ',';
    first = false;
    out += '"' + util::jsonEscape(name) + "\":" + std::to_string(value);
  }
  out += '}';
}

void appendHistogramObject(
    std::string& out,
    const std::map<std::string, HistogramSnapshot>& values) {
  out += '{';
  bool first = true;
  for (const auto& [name, histogram] : values) {
    if (!first) out += ',';
    first = false;
    out += '"' + util::jsonEscape(name) + "\":{\"bounds\":[";
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += util::formatDouble(histogram.bounds[i], 6);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(histogram.counts[i]);
    }
    out += "]}";
  }
  out += '}';
}

}  // namespace

std::string stableMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":";
  appendCounterObject(out, snapshot.counters);
  out += ",\"histograms\":";
  appendHistogramObject(out, snapshot.histograms);
  out += '}';
  return out;
}

std::string runtimeMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":";
  appendCounterObject(out, snapshot.runtimeCounters);
  out += ",\"gauges\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + util::jsonEscape(name) + "\":" + util::formatDouble(value, 6);
  }
  out += "},\"histograms\":";
  appendHistogramObject(out, snapshot.runtimeHistograms);
  out += '}';
  return out;
}

}  // namespace sca::obs
