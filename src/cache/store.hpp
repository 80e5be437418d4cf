// DiskCache: a crash-safe, content-addressed, on-disk LRU cache.
//
// This is what lets repeated bench runs and repeated-transform sweeps
// amortize LLM cost across *processes* — the shape of workload the
// attribution literature runs constantly (50-step NCT/CT schedules per
// setting). Its one client is llm::CachingClient. Feature analyses are not
// stored: re-analysing a source costs less than restoring it from disk, so
// they live only in the extractor's in-memory memo.
//
// On-disk layout under `dir`:
//
//   index.json                   versioned single-file JSONL index
//     {"magic":"sca-cache-v1","next_gen":123}
//     {"key":"<32 hex>","bytes":512,"gen":7,"check":"<16 hex>"}
//     ...
//   values/<kk>/<32 hex>.val     one file per entry, sharded by the key's
//                                first two hex chars; contents are the
//                                value bytes verbatim
//
// Durability and corruption tolerance:
//
//   * Both the index and every value file are written via
//     util::atomicWriteFile (temp + rename), so a kill at any instant
//     leaves either the previous file or a stray temp — never a torn one.
//   * The index is the source of truth. A crash between a value write and
//     the next index flush orphans the value file; orphans are invisible
//     to get() and reported (not failed) by verify().
//   * Loading is corruption-*tolerant*: a bad magic or unreadable index
//     starts the cache empty; a torn index line is skipped; a get() whose
//     value file is missing, short, or fails its checksum drops the entry
//     and reports a miss. A bad entry is a miss, never an abort.
//
// Eviction: entries carry a generation stamp (monotone counter, persisted)
// bumped on every hit and put; when total value bytes exceed maxBytes the
// lowest-generation entries are evicted — LRU in arrival-or-access order,
// deterministic because generations are assigned under the store lock.
//
// Telemetry: hit/miss/put/evict/load counters and a byte high-water gauge
// land in the obs registry as *runtime* instruments (prefix "cache_") —
// cache effectiveness depends on what a previous process left on disk, so
// these can never be part of the byte-compared stable section. Per-instance
// counts are also kept in Stats for tests that need isolation from the
// global registry.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/key.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace sca::cache {

struct StoreOptions {
  std::string dir;
  /// Eviction threshold over the sum of value bytes (index excluded).
  std::uint64_t maxBytes = 256ull << 20;
  /// Persist the index after every Nth put. 1 = every put (a crash loses at
  /// most the in-flight entry); larger amortizes the index rewrite over
  /// bursts of puts (a crash orphans at most N-1 values — still safe, just
  /// cold); 0 = only on flush()/destruction.
  std::size_t flushInterval = 1;
};

class DiskCache {
 public:
  static constexpr std::string_view kIndexMagic = "sca-cache-v1";

  /// Opens (and loads) the cache at options.dir; a missing or invalid
  /// index starts empty. The directory is created lazily on first write.
  explicit DiskCache(StoreOptions options);

  /// Best-effort final flush.
  ~DiskCache();

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  /// The value bytes, or nullopt on miss (unknown key, missing value file,
  /// checksum mismatch — the latter two also drop the entry). A hit
  /// refreshes the entry's LRU generation.
  [[nodiscard]] std::optional<std::string> get(const CacheKey& key);

  /// Inserts or overwrites. Evicts lowest-generation entries once total
  /// bytes exceed maxBytes (a value larger than maxBytes is evicted
  /// immediately — put() never fails the caller for capacity reasons).
  /// Returns non-OK only when the value file cannot be written.
  util::Status put(const CacheKey& key, std::string_view value);

  /// Persists the index now (atomic replace).
  util::Status flush();

  /// Drops every entry, deletes the value tree and the index file.
  util::Status purge();

  [[nodiscard]] std::size_t entryCount() const;
  [[nodiscard]] std::uint64_t totalBytes() const;
  [[nodiscard]] const std::string& dir() const noexcept {
    return options_.dir;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t puts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t loadedEntries = 0;      // read from the index at open
    std::uint64_t skippedIndexLines = 0;  // torn/malformed lines at open
    std::uint64_t corruptValues = 0;      // checksum/read failures in get()
  };
  [[nodiscard]] Stats stats() const;

  /// Index/value consistency check of the *current* state: every entry's
  /// value file must exist with the recorded size and checksum. problems
  /// is empty when consistent; orphanValues counts value files the index
  /// does not know (informational — the expected residue of a crash
  /// between value write and index flush).
  struct VerifyReport {
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
    std::size_t orphanValues = 0;
    std::uint64_t skippedIndexLines = 0;
    std::vector<std::string> problems;
    [[nodiscard]] bool ok() const noexcept { return problems.empty(); }
  };
  [[nodiscard]] VerifyReport verify() const;

  /// The process-wide store configured from the environment — SCA_CACHE_DIR
  /// (unset/empty disables caching; nullptr is returned) and
  /// SCA_CACHE_MAX_BYTES (bytes; default 256 MiB). Created on first use,
  /// flushed at exit.
  [[nodiscard]] static DiskCache* processCache();

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::uint64_t gen = 0;
    std::uint64_t check = 0;  // util::hash64 of the value bytes
  };

  void load();
  [[nodiscard]] std::string indexPath() const;
  [[nodiscard]] std::string valuePath(const CacheKey& key) const;
  void touchLocked(const CacheKey& key, Entry& entry);
  void dropLocked(const CacheKey& key, bool deleteFile);
  void evictLocked();
  util::Status flushLocked();
  [[nodiscard]] std::string indexContentLocked() const;

  StoreOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> entries_;
  std::map<std::uint64_t, CacheKey> byGeneration_;  // LRU order, oldest first
  std::uint64_t nextGen_ = 1;
  std::uint64_t totalBytes_ = 0;
  std::size_t unflushedPuts_ = 0;
  bool dirty_ = false;
  Stats stats_;
};

}  // namespace sca::cache
