#include "cache/store.hpp"

#include <cstdlib>
#include <filesystem>
#include <memory>

#include "obs/log.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace sca::cache {
namespace {

namespace fs = std::filesystem;

// Global effectiveness counters, runtime-tagged: what a run finds on disk
// depends on previous processes, so none of these may enter the stable
// (byte-compared) metrics section. Handles are created once and shared by
// every store instance.
obs::Counter cacheCounter(const char* name) {
  return obs::MetricsRegistry::global().counter(name,
                                                obs::Stability::kRuntime);
}

struct GlobalCounters {
  obs::Counter hits = cacheCounter("cache_hits");
  obs::Counter misses = cacheCounter("cache_misses");
  obs::Counter puts = cacheCounter("cache_puts");
  obs::Counter evictions = cacheCounter("cache_evictions");
  obs::Counter loadedEntries = cacheCounter("cache_load_entries");
  obs::Counter skippedIndexLines = cacheCounter("cache_index_skipped");
  obs::Counter corruptValues = cacheCounter("cache_value_corrupt");
  obs::Gauge bytesHighWater = obs::MetricsRegistry::global().gauge(
      "cache_bytes_high_water", obs::GaugeKind::kMax);

  static GlobalCounters& get() {
    static GlobalCounters instance;
    return instance;
  }
};

void removeFileQuiet(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);  // best effort; a leftover file is only an orphan
}

}  // namespace

DiskCache::DiskCache(StoreOptions options) : options_(std::move(options)) {
  load();
}

DiskCache::~DiskCache() {
  std::lock_guard lock(mutex_);
  if (dirty_) {
    const util::Status status = flushLocked();
    if (!status.isOk()) {
      obs::logEvent(obs::LogLevel::kWarn, "cache", "index_flush_failed",
                    [&](util::JsonObjectBuilder& fields) {
                      fields.add("dir", options_.dir);
                      fields.add("error", status.toString());
                    });
    }
  }
}

std::string DiskCache::indexPath() const { return options_.dir + "/index.json"; }

std::string DiskCache::valuePath(const CacheKey& key) const {
  const std::string hex = formatKey(key);
  return options_.dir + "/values/" + hex.substr(0, 2) + "/" + hex + ".val";
}

void DiskCache::load() {
  GlobalCounters& global = GlobalCounters::get();
  const util::Result<std::string> file = util::readFile(indexPath());
  if (!file.ok()) return;  // no index yet: empty cache

  const std::vector<std::string> lines = util::split(file.value(), '\n');
  if (lines.empty()) return;

  // A wrong or missing magic means a different format version: start
  // empty. The stale value files become orphans and are rewritten or
  // cleaned by the next purge — never trusted.
  std::string magic;
  if (!util::jsonStringField(lines[0], "magic", &magic) ||
      magic != kIndexMagic) {
    return;
  }
  long long headerGen = 0;
  if (util::jsonIntField(lines[0], "next_gen", &headerGen) && headerGen > 0) {
    nextGen_ = static_cast<std::uint64_t>(headerGen);
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;  // trailing newline
    std::string keyHex;
    std::string checkHex;
    long long bytes = 0;
    long long gen = 0;
    CacheKey key;
    Entry entry;
    const bool parsed = util::jsonStringField(lines[i], "key", &keyHex) &&
                        parseKey(keyHex, &key) &&
                        util::jsonIntField(lines[i], "bytes", &bytes) &&
                        bytes >= 0 &&
                        util::jsonIntField(lines[i], "gen", &gen) &&
                        gen >= 0 &&
                        util::jsonStringField(lines[i], "check", &checkHex) &&
                        util::parseHex64(checkHex, &entry.check);
    if (!parsed) {
      // Torn or malformed line (typically the tail of a truncated index):
      // skip it — the entry is a miss, everything before it still serves.
      ++stats_.skippedIndexLines;
      global.skippedIndexLines.add();
      continue;
    }
    entry.bytes = static_cast<std::uint64_t>(bytes);
    entry.gen = static_cast<std::uint64_t>(gen);
    const auto [it, inserted] = entries_.insert_or_assign(key, entry);
    (void)it;
    if (!inserted) {
      // Duplicate key (last writer wins): rebuild the aggregates below.
    }
  }

  // Rebuild the derived state from the surviving entries.
  totalBytes_ = 0;
  byGeneration_.clear();
  for (auto& [key, entry] : entries_) {
    // Two entries can carry one generation only via index corruption;
    // disambiguate deterministically rather than dropping either.
    while (byGeneration_.count(entry.gen) != 0) ++entry.gen;
    byGeneration_.emplace(entry.gen, key);
    totalBytes_ += entry.bytes;
    if (entry.gen >= nextGen_) nextGen_ = entry.gen + 1;
  }
  stats_.loadedEntries = entries_.size();
  global.loadedEntries.add(entries_.size());
  global.bytesHighWater.recordMax(static_cast<double>(totalBytes_));
  if (stats_.skippedIndexLines > 0) {
    obs::logEvent(obs::LogLevel::kWarn, "cache", "index_lines_skipped",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.add("dir", options_.dir);
                    fields.addUint("skipped", stats_.skippedIndexLines);
                  });
  }

  // The capacity may have shrunk since the index was written.
  evictLocked();
}

void DiskCache::touchLocked(const CacheKey& key, Entry& entry) {
  byGeneration_.erase(entry.gen);
  entry.gen = nextGen_++;
  byGeneration_.emplace(entry.gen, key);
  dirty_ = true;
}

void DiskCache::dropLocked(const CacheKey& key, bool deleteFile) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  totalBytes_ -= it->second.bytes;
  byGeneration_.erase(it->second.gen);
  if (deleteFile) removeFileQuiet(valuePath(key));
  entries_.erase(it);
  dirty_ = true;
}

void DiskCache::evictLocked() {
  GlobalCounters& global = GlobalCounters::get();
  while (totalBytes_ > options_.maxBytes && !byGeneration_.empty()) {
    const CacheKey victim = byGeneration_.begin()->second;
    dropLocked(victim, /*deleteFile=*/true);
    ++stats_.evictions;
    global.evictions.add();
    obs::logEvent(obs::LogLevel::kDebug, "cache", "eviction",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.add("key", formatKey(victim));
                    fields.addUint("bytes_after", totalBytes_);
                  });
  }
}

std::optional<std::string> DiskCache::get(const CacheKey& key) {
  GlobalCounters& global = GlobalCounters::get();
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    global.misses.add();
    return std::nullopt;
  }

  util::Result<std::string> value = util::readFile(valuePath(key));
  const bool intact = value.ok() &&
                      value.value().size() == it->second.bytes &&
                      util::hash64(value.value()) == it->second.check;
  if (!intact) {
    // The index promised bytes the filesystem no longer has (crash orphan
    // cleanup, manual tampering, bit rot): drop the entry so the caller
    // recomputes and put() repairs the cache.
    dropLocked(key, /*deleteFile=*/true);
    ++stats_.corruptValues;
    ++stats_.misses;
    global.corruptValues.add();
    global.misses.add();
    obs::logEvent(obs::LogLevel::kWarn, "cache", "value_corrupt",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.add("key", formatKey(key));
                  });
    return std::nullopt;
  }

  touchLocked(key, it->second);
  ++stats_.hits;
  global.hits.add();
  return std::move(value.value());
}

util::Status DiskCache::put(const CacheKey& key, std::string_view value) {
  GlobalCounters& global = GlobalCounters::get();
  std::lock_guard lock(mutex_);

  // Value first, index second: until the index records the entry the new
  // file is at worst an orphan, never a torn read.
  const util::Status written = util::atomicWriteFile(valuePath(key), value);
  if (!written.isOk()) return written;

  dropLocked(key, /*deleteFile=*/false);  // overwrite: retire the old entry
  Entry entry;
  entry.bytes = value.size();
  entry.check = util::hash64(value);
  entry.gen = nextGen_++;
  byGeneration_.emplace(entry.gen, key);
  entries_.emplace(key, entry);
  totalBytes_ += entry.bytes;
  dirty_ = true;
  ++stats_.puts;
  ++unflushedPuts_;
  global.puts.add();
  global.bytesHighWater.recordMax(static_cast<double>(totalBytes_));

  evictLocked();
  if (options_.flushInterval > 0 && unflushedPuts_ >= options_.flushInterval) {
    return flushLocked();
  }
  return util::Status::ok();
}

std::string DiskCache::indexContentLocked() const {
  std::string content;
  content.reserve(64 + entries_.size() * 96);
  content += util::JsonObjectBuilder()
                 .add("magic", kIndexMagic)
                 .addUint("next_gen", nextGen_)
                 .str();
  content += '\n';
  // Generation order keeps the file deterministic for a given access
  // history and lets a truncated tail cost only the *newest* entries.
  for (const auto& [gen, key] : byGeneration_) {
    const Entry& entry = entries_.at(key);
    content += util::JsonObjectBuilder()
                   .add("key", formatKey(key))
                   .addUint("bytes", entry.bytes)
                   .addUint("gen", gen)
                   .add("check", util::toHex64(entry.check))
                   .str();
    content += '\n';
  }
  return content;
}

util::Status DiskCache::flushLocked() {
  const util::Status status =
      util::atomicWriteFile(indexPath(), indexContentLocked());
  if (status.isOk()) {
    dirty_ = false;
    unflushedPuts_ = 0;
  }
  return status;
}

util::Status DiskCache::flush() {
  std::lock_guard lock(mutex_);
  return flushLocked();
}

util::Status DiskCache::purge() {
  std::lock_guard lock(mutex_);
  obs::logEvent(obs::LogLevel::kInfo, "cache", "purge",
                [&](util::JsonObjectBuilder& fields) {
                  fields.add("dir", options_.dir);
                  fields.addUint("entries", entries_.size());
                });
  entries_.clear();
  byGeneration_.clear();
  totalBytes_ = 0;
  unflushedPuts_ = 0;
  dirty_ = false;
  std::error_code ec;
  fs::remove_all(options_.dir + "/values", ec);
  if (ec) {
    return util::Status(util::StatusCode::kInternal,
                        "purge " + options_.dir + ": " + ec.message());
  }
  removeFileQuiet(indexPath());
  return util::Status::ok();
}

std::size_t DiskCache::entryCount() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::uint64_t DiskCache::totalBytes() const {
  std::lock_guard lock(mutex_);
  return totalBytes_;
}

DiskCache::Stats DiskCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

DiskCache::VerifyReport DiskCache::verify() const {
  VerifyReport report;
  std::lock_guard lock(mutex_);
  report.entries = entries_.size();
  report.bytes = totalBytes_;
  report.skippedIndexLines = stats_.skippedIndexLines;
  if (stats_.skippedIndexLines > 0) {
    report.problems.push_back(
        "index: " + std::to_string(stats_.skippedIndexLines) +
        " torn line(s) skipped at load");
  }

  for (const auto& [key, entry] : entries_) {
    const std::string path = valuePath(key);
    const util::Result<std::string> value = util::readFile(path);
    if (!value.ok()) {
      report.problems.push_back("missing value file " + path);
      continue;
    }
    if (value.value().size() != entry.bytes) {
      report.problems.push_back(
          "size mismatch " + path + ": index " + std::to_string(entry.bytes) +
          " vs file " + std::to_string(value.value().size()));
      continue;
    }
    if (util::hash64(value.value()) != entry.check) {
      report.problems.push_back("checksum mismatch " + path);
    }
  }

  std::error_code ec;
  const fs::path valuesDir = fs::path(options_.dir) / "values";
  if (fs::is_directory(valuesDir, ec)) {
    for (const auto& shard : fs::directory_iterator(valuesDir, ec)) {
      if (!shard.is_directory()) continue;
      for (const auto& file : fs::directory_iterator(shard.path(), ec)) {
        CacheKey key;
        const std::string stem = file.path().stem().string();
        if (file.path().extension() != ".val" || !parseKey(stem, &key) ||
            entries_.find(key) == entries_.end()) {
          ++report.orphanValues;
        }
      }
    }
  }
  return report;
}

DiskCache* DiskCache::processCache() {
  static const std::unique_ptr<DiskCache> instance =
      []() -> std::unique_ptr<DiskCache> {
    const char* dir = std::getenv("SCA_CACHE_DIR");
    if (dir == nullptr || *dir == '\0') return nullptr;
    StoreOptions options;
    options.dir = dir;
    // A cold build puts one LLM result per transform step; flushing every
    // 32nd put keeps the index rewrite amortized while a crash costs at
    // most 31 warm entries (values stay intact as orphans).
    options.flushInterval = 32;
    if (const char* raw = std::getenv("SCA_CACHE_MAX_BYTES");
        raw != nullptr && *raw != '\0') {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(raw, &end, 10);
      if (end != raw && parsed > 0) options.maxBytes = parsed;
    }
    return std::make_unique<DiskCache>(std::move(options));
  }();
  return instance.get();
}

}  // namespace sca::cache
