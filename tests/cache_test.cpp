// Tests for the persistent content-addressed cache (src/cache/) and its
// integration seam, the CachingClient LLM decorator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cache/codec.hpp"
#include "cache/key.hpp"
#include "cache/store.hpp"
#include "corpus/challenges.hpp"
#include "llm/caching_client.hpp"
#include "llm/fault_injection.hpp"
#include "llm/resilient_client.hpp"
#include "llm/synthetic_llm.hpp"
#include "runtime/parallel.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace sca::cache {
namespace {

std::string tempDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("sca_cache_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CacheKey key(std::uint64_t hi, std::uint64_t lo) { return CacheKey{hi, lo}; }

// ------------------------------------------------------------------ codec

TEST(Codec, RoundTripsEveryFieldKind) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.str("hello \x01 world");
  w.str("");
  w.boolean(true);
  w.boolean(false);
  const std::string bytes = w.take();

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  const double negZero = r.f64();
  EXPECT_EQ(negZero, 0.0);
  EXPECT_TRUE(std::signbit(negZero));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.str(), "hello \x01 world");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(Codec, TruncationLatchesNotOkInsteadOfCrashing) {
  ByteWriter w;
  w.u64(42);
  w.str("payload");
  const std::string bytes = w.take();

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader r(std::string_view(bytes).substr(0, cut));
    (void)r.u64();
    (void)r.str();
    EXPECT_FALSE(r.ok() && r.atEnd()) << "cut at " << cut;
  }
}

// -------------------------------------------------------------- DiskCache

TEST(DiskCache, PutGetRoundTripAndPersistAcrossInstances) {
  const std::string dir = tempDir("roundtrip");
  {
    DiskCache cache(StoreOptions{.dir = dir});
    EXPECT_EQ(cache.get(key(1, 2)), std::nullopt);
    ASSERT_TRUE(cache.put(key(1, 2), "alpha").isOk());
    ASSERT_TRUE(cache.put(key(3, 4), std::string("b\0b", 3)).isOk());
    EXPECT_EQ(cache.get(key(1, 2)), "alpha");
    EXPECT_EQ(cache.get(key(3, 4)), std::string("b\0b", 3));
    EXPECT_EQ(cache.entryCount(), 2u);
  }
  DiskCache reloaded(StoreOptions{.dir = dir});
  EXPECT_EQ(reloaded.entryCount(), 2u);
  EXPECT_EQ(reloaded.get(key(1, 2)), "alpha");
  EXPECT_EQ(reloaded.get(key(3, 4)), std::string("b\0b", 3));
  EXPECT_EQ(reloaded.stats().loadedEntries, 2u);
}

TEST(DiskCache, OverwriteReplacesValueAndBytes) {
  DiskCache cache(StoreOptions{.dir = tempDir("overwrite")});
  ASSERT_TRUE(cache.put(key(1, 1), "short").isOk());
  ASSERT_TRUE(cache.put(key(1, 1), "a much longer value").isOk());
  EXPECT_EQ(cache.entryCount(), 1u);
  EXPECT_EQ(cache.totalBytes(), 19u);
  EXPECT_EQ(cache.get(key(1, 1)), "a much longer value");
}

TEST(DiskCache, EvictsLeastRecentlyUsedFirstAndHonorsByteCapacity) {
  StoreOptions options;
  options.dir = tempDir("lru");
  options.maxBytes = 30;  // three 10-byte values
  DiskCache cache(options);
  const std::string tenBytes(10, 'x');
  ASSERT_TRUE(cache.put(key(0, 1), tenBytes).isOk());
  ASSERT_TRUE(cache.put(key(0, 2), tenBytes).isOk());
  ASSERT_TRUE(cache.put(key(0, 3), tenBytes).isOk());
  EXPECT_EQ(cache.entryCount(), 3u);

  // A hit refreshes entry 1, so entry 2 is now the LRU victim.
  EXPECT_TRUE(cache.get(key(0, 1)).has_value());
  ASSERT_TRUE(cache.put(key(0, 4), tenBytes).isOk());
  EXPECT_EQ(cache.entryCount(), 3u);
  EXPECT_EQ(cache.get(key(0, 2)), std::nullopt);  // evicted
  EXPECT_TRUE(cache.get(key(0, 1)).has_value());
  EXPECT_TRUE(cache.get(key(0, 3)).has_value());
  EXPECT_TRUE(cache.get(key(0, 4)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.totalBytes(), options.maxBytes);
}

TEST(DiskCache, LruOrderSurvivesReload) {
  StoreOptions options;
  options.dir = tempDir("lru_reload");
  options.maxBytes = 1000;
  {
    DiskCache cache(options);
    ASSERT_TRUE(cache.put(key(0, 1), std::string(400, 'a')).isOk());
    ASSERT_TRUE(cache.put(key(0, 2), std::string(400, 'b')).isOk());
    EXPECT_TRUE(cache.get(key(0, 1)).has_value());  // 1 newer than 2 now
  }
  DiskCache reloaded(options);
  ASSERT_TRUE(reloaded.put(key(0, 3), std::string(400, 'c')).isOk());
  EXPECT_EQ(reloaded.get(key(0, 2)), std::nullopt);  // evicted, not 1
  EXPECT_TRUE(reloaded.get(key(0, 1)).has_value());
}

TEST(DiskCache, WrongMagicStartsEmpty) {
  const std::string dir = tempDir("magic");
  {
    DiskCache cache(StoreOptions{.dir = dir});
    ASSERT_TRUE(cache.put(key(7, 7), "value").isOk());
  }
  // A different format version (or garbage) in the header invalidates the
  // whole index.
  ASSERT_TRUE(
      util::atomicWriteFile(dir + "/index.json",
                            "{\"magic\":\"sca-cache-v999\",\"next_gen\":9}\n")
          .isOk());
  DiskCache reloaded(StoreOptions{.dir = dir});
  EXPECT_EQ(reloaded.entryCount(), 0u);
  EXPECT_EQ(reloaded.get(key(7, 7)), std::nullopt);
}

TEST(DiskCache, TruncatedIndexLineIsSkippedOthersSurvive) {
  const std::string dir = tempDir("torn_index");
  {
    DiskCache cache(StoreOptions{.dir = dir});
    ASSERT_TRUE(cache.put(key(1, 1), "first").isOk());
    ASSERT_TRUE(cache.put(key(2, 2), "second").isOk());
  }
  // Simulate a crash mid-write: chop the index mid-last-line.
  const util::Result<std::string> index = util::readFile(dir + "/index.json");
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(
      util::atomicWriteFile(dir + "/index.json",
                            index.value().substr(0, index.value().size() - 30))
          .isOk());

  DiskCache reloaded(StoreOptions{.dir = dir});
  EXPECT_EQ(reloaded.entryCount(), 1u);
  EXPECT_GE(reloaded.stats().skippedIndexLines, 1u);
  EXPECT_TRUE(reloaded.get(key(1, 1)).has_value());
  EXPECT_EQ(reloaded.get(key(2, 2)), std::nullopt);
}

TEST(DiskCache, CorruptValueFileIsAMissAndDropsTheEntry) {
  const std::string dir = tempDir("corrupt_value");
  DiskCache cache(StoreOptions{.dir = dir});
  ASSERT_TRUE(cache.put(key(5, 5), "pristine bytes").isOk());

  // Flip the value file behind the cache's back.
  const std::string hex = formatKey(key(5, 5));
  const std::string valuePath =
      dir + "/values/" + hex.substr(0, 2) + "/" + hex + ".val";
  ASSERT_TRUE(util::atomicWriteFile(valuePath, "tampered bytes").isOk());

  EXPECT_EQ(cache.get(key(5, 5)), std::nullopt);
  EXPECT_EQ(cache.entryCount(), 0u);
  EXPECT_EQ(cache.stats().corruptValues, 1u);

  // put() repairs it.
  ASSERT_TRUE(cache.put(key(5, 5), "pristine bytes").isOk());
  EXPECT_EQ(cache.get(key(5, 5)), "pristine bytes");
}

TEST(DiskCache, VerifyFlagsCorruptionAndCountsOrphans) {
  const std::string dir = tempDir("verify");
  DiskCache cache(StoreOptions{.dir = dir});
  ASSERT_TRUE(cache.put(key(1, 1), "good").isOk());
  ASSERT_TRUE(cache.put(key(2, 2), "bad soon").isOk());
  EXPECT_TRUE(cache.verify().ok());

  const std::string hex = formatKey(key(2, 2));
  const std::string valuePath =
      dir + "/values/" + hex.substr(0, 2) + "/" + hex + ".val";
  ASSERT_TRUE(util::atomicWriteFile(valuePath, "bad now!").isOk());
  const DiskCache::VerifyReport report = cache.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.problems.size(), 1u);

  // An orphan value (file without an index entry) is informational only.
  const std::string orphanHex = formatKey(key(9, 9));
  ASSERT_TRUE(util::atomicWriteFile(dir + "/values/" +
                                        orphanHex.substr(0, 2) + "/" +
                                        orphanHex + ".val",
                                    "orphan")
                  .isOk());
  EXPECT_EQ(cache.verify().orphanValues, 1u);
}

TEST(DiskCache, PurgeDropsEverything) {
  const std::string dir = tempDir("purge");
  DiskCache cache(StoreOptions{.dir = dir});
  ASSERT_TRUE(cache.put(key(1, 1), "value").isOk());
  ASSERT_TRUE(cache.purge().isOk());
  EXPECT_EQ(cache.entryCount(), 0u);
  EXPECT_EQ(cache.totalBytes(), 0u);
  EXPECT_EQ(cache.get(key(1, 1)), std::nullopt);
  EXPECT_FALSE(std::filesystem::exists(dir + "/index.json"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/values"));
}

TEST(DiskCache, DeferredFlushStillPersistsOnDestruction) {
  const std::string dir = tempDir("deferred");
  StoreOptions options;
  options.dir = dir;
  options.flushInterval = 0;  // only flush()/destructor persist the index
  {
    DiskCache cache(options);
    ASSERT_TRUE(cache.put(key(1, 1), "value").isOk());
    EXPECT_FALSE(std::filesystem::exists(dir + "/index.json"));
  }
  DiskCache reloaded(StoreOptions{.dir = dir});
  EXPECT_EQ(reloaded.get(key(1, 1)), "value");
}

TEST(DiskCache, ConcurrentReadersAllHit) {
  DiskCache cache(StoreOptions{.dir = tempDir("concurrent")});
  constexpr std::size_t kEntries = 64;
  for (std::size_t i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(
        cache.put(key(1, i), "value-" + std::to_string(i)).isOk());
  }
  const std::vector<int> results = runtime::parallelMap<int>(
      kEntries * 4, [&](std::size_t task) {
        const std::size_t i = task % kEntries;
        const std::optional<std::string> value = cache.get(key(1, i));
        return (value.has_value() && *value == "value-" + std::to_string(i))
                   ? 1
                   : 0;
      });
  for (const int ok : results) EXPECT_EQ(ok, 1);
  EXPECT_EQ(cache.stats().hits, kEntries * 4);
}

// ---------------------------------------------------------- CachingClient

/// Full decorator stack of the dataset builder, with faults on: model ->
/// fault injector -> resilient wrapper [-> caching].
std::vector<std::string> runChain(DiskCache* store, std::size_t steps,
                                  std::uint64_t seed, double faultRate) {
  llm::LlmOptions options;
  options.year = 2018;
  options.seed = seed;
  llm::SyntheticLlm model(options);
  llm::FaultInjectingClient faulty(
      model, llm::FaultOptions::scaled(faultRate, seed));
  llm::RetryPolicy retry;
  retry.seed = seed;
  llm::ResilientClient resilient(faulty, retry);

  llm::LlmClient* client = &resilient;
  std::optional<llm::CachingClient> caching;
  if (store != nullptr) {
    caching.emplace(*client, *store,
                    llm::llmConfigHash(options, faultRate));
    client = &*caching;
  }

  const corpus::Challenge& challenge = corpus::challengeById("race");
  std::vector<std::string> outputs;
  outputs.push_back(client->tryGenerate(challenge).value());
  for (std::size_t i = 1; i < steps; ++i) {
    outputs.push_back(client->tryTransform(outputs.back()).value());
  }
  return outputs;
}

TEST(CachingClient, ColdAndWarmMatchUncachedByteForByte) {
  DiskCache store(StoreOptions{.dir = tempDir("llm_identity")});
  const std::vector<std::string> uncached =
      runChain(nullptr, 6, 42, /*faultRate=*/0.3);
  const std::vector<std::string> cold = runChain(&store, 6, 42, 0.3);
  const std::vector<std::string> warm = runChain(&store, 6, 42, 0.3);
  EXPECT_EQ(uncached, cold);
  EXPECT_EQ(uncached, warm);
}

TEST(CachingClient, WarmRunServesFromStoreWithoutTouchingInner) {
  DiskCache store(StoreOptions{.dir = tempDir("llm_warm")});
  (void)runChain(&store, 5, 7, 0.0);

  llm::LlmOptions options;
  options.year = 2018;
  options.seed = 7;
  llm::SyntheticLlm model(options);
  llm::CachingClient caching(model, store,
                             llm::llmConfigHash(options, 0.0));
  const corpus::Challenge& challenge = corpus::challengeById("race");
  std::string output = caching.tryGenerate(challenge).value();
  for (int i = 1; i < 5; ++i) {
    output = caching.tryTransform(output).value();
  }
  EXPECT_EQ(model.callCount(), 0u);  // every request was a hit
  EXPECT_EQ(caching.stats().hits, 5u);
  EXPECT_EQ(caching.stats().misses, 0u);
}

TEST(CachingClient, FirstMissReplaysServedPrefixThroughInner) {
  DiskCache store(StoreOptions{.dir = tempDir("llm_replay")});
  // Cold: 4 steps cached. Warm: 7 steps — the first 4 hit, step 5 misses
  // and must replay the 4 served calls to restore inner state.
  const std::vector<std::string> cold = runChain(&store, 4, 11, 0.0);
  const std::vector<std::string> longUncached = runChain(nullptr, 7, 11, 0.0);

  llm::LlmOptions options;
  options.year = 2018;
  options.seed = 11;
  llm::SyntheticLlm model(options);
  llm::CachingClient caching(model, store,
                             llm::llmConfigHash(options, 0.0));
  const corpus::Challenge& challenge = corpus::challengeById("race");
  std::vector<std::string> warm;
  warm.push_back(caching.tryGenerate(challenge).value());
  for (int i = 1; i < 7; ++i) {
    warm.push_back(caching.tryTransform(warm.back()).value());
  }
  EXPECT_EQ(warm, longUncached);
  EXPECT_EQ(caching.stats().hits, 4u);
  EXPECT_EQ(caching.stats().replays, 4u);
  EXPECT_EQ(caching.stats().misses, 3u);
  // The extension is now cached too.
  EXPECT_EQ(std::vector<std::string>(warm.begin(), warm.begin() + 4), cold);
}

TEST(CachingClient, DifferentConfigHashNeverHits) {
  DiskCache store(StoreOptions{.dir = tempDir("llm_config")});
  (void)runChain(&store, 4, 3, 0.0);
  const std::uint64_t putsAfterCold = store.stats().puts;
  ASSERT_GT(putsAfterCold, 0u);

  // Same conversation, different fault rate => different config hash =>
  // a fully cold run (the stale entries are simply never addressed).
  llm::LlmOptions options;
  options.year = 2018;
  options.seed = 3;
  llm::SyntheticLlm model(options);
  llm::CachingClient caching(model, store,
                             llm::llmConfigHash(options, /*faultRate=*/0.5));
  const corpus::Challenge& challenge = corpus::challengeById("race");
  (void)caching.tryGenerate(challenge).value();
  EXPECT_EQ(caching.stats().hits, 0u);
  EXPECT_EQ(caching.stats().misses, 1u);
}

TEST(CachingClient, ErrorsAreNotCached) {
  DiskCache store(StoreOptions{.dir = tempDir("llm_errors")});

  struct FailingClient : llm::LlmClient {
    util::Result<std::string> tryGenerate(const corpus::Challenge&) override {
      return util::Status(util::StatusCode::kUnavailable, "down");
    }
    util::Result<std::string> tryTransform(const std::string&) override {
      return util::Status(util::StatusCode::kUnavailable, "down");
    }
    std::string_view describe() const override { return "failing"; }
  } failing;

  llm::CachingClient caching(failing, store, 123);
  EXPECT_FALSE(caching.tryTransform("x").ok());
  EXPECT_EQ(store.stats().puts, 0u);
  EXPECT_EQ(store.entryCount(), 0u);
}

}  // namespace
}  // namespace sca::cache
