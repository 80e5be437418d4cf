// Cold-vs-warm bench for the persistent cache subsystem (src/cache/).
//
// Three passes over the same workload — the Table II mini build (LLM
// generation + 4 settings x 6 transform steps) followed by feature
// extraction over every produced sample:
//
//   cache_off   no store attached: every LLM call computed,
//   cache_cold  store attached but purged: computes and pays every put,
//   cache_warm  same store, in-memory caches cleared: LLM results served
//               from disk (feature analyses are always recomputed).
//
// The bench asserts the subsystem's hard invariant — a combined digest of
// every transformed byte and every feature double is identical across the
// three passes (exit 1 otherwise) — and reports two ratios: cold/warm,
// which the CI acceptance checks (warm must be >= 3x faster), and off/warm,
// what a warm store saves over running with no store at all.
// Each pass is a PhaseTimer scope, so its wall time also lands in the
// run manifest's "phases" and the history record.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cache/store.hpp"
#include "corpus/dataset.hpp"
#include "features/extractor.hpp"
#include "llm/pipelines.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace sca;

constexpr std::size_t kSteps = 6;

/// One full pass: transform build + extractor fit + transformAll.
/// Returns a digest folding every transformed source byte and every
/// feature-vector double (as IEEE-754 bits) — any divergence between cache
/// states lands in this value.
std::uint64_t runPass(const corpus::YearDataset& data,
                      cache::DiskCache* store) {
  llm::BuildOptions options;
  options.steps = kSteps;
  options.faultRate = 0.0;
  options.resultCache = store;
  const llm::TransformedDataset transformed =
      llm::buildTransformedDataset(data, options);

  std::vector<std::string> sources;
  sources.reserve(transformed.samples.size());
  for (const llm::TransformedSample& sample : transformed.samples) {
    sources.push_back(sample.source);
  }

  features::FeatureExtractor extractor;
  extractor.fit(sources);
  const std::vector<std::vector<double>> rows =
      extractor.transformAll(sources);

  std::uint64_t digest = util::hash64("micro_cache");
  for (const std::string& source : sources) {
    digest = util::combine64(digest, util::hash64(source));
  }
  for (const std::vector<double>& row : rows) {
    for (const double v : row) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(v));
      __builtin_memcpy(&bits, &v, sizeof(bits));
      digest = util::combine64(digest, bits);
    }
  }
  return digest;
}

}  // namespace

int main() {
  bench::Session session("micro_cache");

  const char* envDir = std::getenv("SCA_CACHE_DIR");
  const std::string dir = (envDir != nullptr && *envDir != '\0')
                              ? std::string(envDir)
                              : std::string("bench_out/micro_cache.cache");
  cache::StoreOptions storeOptions;
  storeOptions.dir = dir;
  storeOptions.flushInterval = 32;
  cache::DiskCache store(storeOptions);

  const corpus::YearDataset data = corpus::buildYearDataset(2018, 24);

  const auto timedPass = [&](const char* phase, cache::DiskCache* passStore,
                             std::uint64_t* digest) {
    const auto start = std::chrono::steady_clock::now();
    {
      runtime::PhaseTimer timer(phase);
      *digest = runPass(data, passStore);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::uint64_t offDigest = 0;
  std::uint64_t coldDigest = 0;
  std::uint64_t warmDigest = 0;

  // Each pass starts with an empty analysis memo; only the disk store (when
  // attached) carries warmth across passes.
  features::clearAnalysisCache();
  const double offSeconds = timedPass("cache_off", nullptr, &offDigest);

  if (!store.purge().isOk()) {
    std::cerr << "[micro_cache] purge failed for " << dir << "\n";
    return 1;
  }
  features::clearAnalysisCache();
  const double coldSeconds = timedPass("cache_cold", &store, &coldDigest);

  features::clearAnalysisCache();
  const double warmSeconds = timedPass("cache_warm", &store, &warmDigest);

  const cache::DiskCache::Stats stats = store.stats();

  util::TablePrinter table("micro_cache: cold vs warm (steps=" +
                           std::to_string(kSteps) + ")");
  table.setHeader({"pass", "seconds", "digest", "store hits", "store puts"});
  table.addRow({"cache_off", util::formatDouble(offSeconds, 3),
                util::toHex64(offDigest), "-", "-"});
  table.addRow({"cache_cold", util::formatDouble(coldSeconds, 3),
                util::toHex64(coldDigest), "-",
                std::to_string(stats.puts)});
  table.addRow({"cache_warm", util::formatDouble(warmSeconds, 3),
                util::toHex64(warmDigest), std::to_string(stats.hits), "-"});
  const double speedup = warmSeconds > 0.0 ? coldSeconds / warmSeconds : 0.0;
  const double offSpeedup =
      warmSeconds > 0.0 ? offSeconds / warmSeconds : 0.0;
  table.addRow({"speedup (cold/warm)", util::formatDouble(speedup, 2) + "x",
                "", "", ""});
  table.addRow({"speedup (off/warm)", util::formatDouble(offSpeedup, 2) + "x",
                "", "", ""});
  bench::emit(table, "micro_cache");

  if (offDigest != coldDigest || coldDigest != warmDigest) {
    std::cerr << "[micro_cache] DIGEST MISMATCH: off=" << util::toHex64(offDigest)
              << " cold=" << util::toHex64(coldDigest)
              << " warm=" << util::toHex64(warmDigest) << "\n";
    return 1;
  }
  if (stats.hits == 0) {
    std::cerr << "[micro_cache] warm pass produced no store hits\n";
    return 1;
  }
  // The acceptance floor for the subsystem: serving from disk must beat
  // recomputing by a wide margin, not just nominally.
  constexpr double kMinSpeedup = 3.0;
  if (speedup < kMinSpeedup) {
    std::cerr << "[micro_cache] warm speedup " << util::formatDouble(speedup, 2)
              << "x below the " << util::formatDouble(kMinSpeedup, 1)
              << "x acceptance floor\n";
    return 1;
  }
  std::cout << "[micro_cache] byte-identical across off/cold/warm; warm "
            << util::formatDouble(speedup, 2) << "x faster than cold\n";

  session.complete();
  return 0;
}
