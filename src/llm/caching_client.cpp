#include "llm/caching_client.hpp"

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace sca::llm {
namespace {

// Runtime-tagged by construction: hit counts depend on what a previous
// process left on disk, so they can never join the stable metrics section.
struct CacheClientCounters {
  obs::Counter hits = obs::MetricsRegistry::global().counter(
      "llm_cache_hits", obs::Stability::kRuntime);
  obs::Counter misses = obs::MetricsRegistry::global().counter(
      "llm_cache_misses", obs::Stability::kRuntime);
  obs::Counter replays = obs::MetricsRegistry::global().counter(
      "llm_cache_replays", obs::Stability::kRuntime);

  static CacheClientCounters& get() {
    static CacheClientCounters instance;
    return instance;
  }
};

std::uint64_t foldDouble(std::uint64_t acc, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return util::combine64(acc, bits);
}

}  // namespace

std::uint64_t llmConfigHash(const LlmOptions& options, double faultRate) {
  // Every knob that influences output bytes folds into the config half of
  // the key; doubles fold as IEEE-754 bit patterns so any change — however
  // small — addresses a fresh key space.
  std::uint64_t acc = util::hash64("sca-llm-v1");
  acc = util::combine64(acc, static_cast<std::uint64_t>(options.year));
  acc = util::combine64(acc, options.seed);
  acc = foldDouble(acc, options.mutationRate);
  acc = foldDouble(acc, options.sloppiness);
  acc = foldDouble(acc, options.familiarity);
  acc = foldDouble(acc, options.stayFamiliar);
  acc = foldDouble(acc, options.stayConversation);
  acc = foldDouble(acc, options.explorationTemper);
  acc = foldDouble(acc, faultRate);
  return acc;
}

CachingClient::CachingClient(LlmClient& inner, cache::DiskCache& store,
                             std::uint64_t configHash)
    : inner_(inner), store_(store), configKey_(configHash) {
  convKey_ = configKey_;  // lo_0: distinct conversations under one config
}

util::Result<std::string> CachingClient::tryGenerate(
    const corpus::Challenge& challenge) {
  Served request;
  request.generate = true;
  request.challenge = &challenge;
  return dispatch(std::move(request));
}

util::Result<std::string> CachingClient::tryTransform(
    const std::string& source) {
  Served request;
  request.generate = false;
  request.input = source;
  return dispatch(std::move(request));
}

util::Result<std::string> CachingClient::callInner(const Served& request) {
  if (request.generate) return inner_.tryGenerate(*request.challenge);
  return inner_.tryTransform(request.input);
}

util::Result<std::string> CachingClient::dispatch(Served request) {
  // Fold this request into the conversation key. Generate keys fold the
  // challenge id (statement text is derived from it); transform keys fold
  // the source — which for a chain is the previous output, so the fold
  // transitively pins the whole history anyway.
  const std::uint64_t opHash = request.generate
                                   ? util::hash64("gen")
                                   : util::hash64("xform");
  const std::uint64_t inputHash =
      request.generate ? util::hash64(request.challenge->id)
                       : util::hash64(request.input);
  convKey_ = util::combine64(convKey_, util::combine64(opHash, inputHash));
  const cache::CacheKey key{configKey_, convKey_};

  CacheClientCounters& counters = CacheClientCounters::get();
  if (!bypass_) {
    if (std::optional<std::string> value = store_.get(key)) {
      ++stats_.hits;
      counters.hits.add();
      served_.push_back(std::move(request));
      return std::move(*value);
    }
    // First miss: replay the served prefix through the inner client so its
    // conversation/RNG state matches a cold run, then stop looking up.
    bypass_ = true;
    for (const Served& prior : served_) {
      // Output already served; state is the point.
      (void)callInner(prior);
      ++stats_.replays;
      counters.replays.add();
    }
    served_.clear();
    served_.shrink_to_fit();
  }

  ++stats_.misses;
  counters.misses.add();
  util::Result<std::string> result = callInner(request);
  if (result.ok()) {
    // Best effort: a failed put degrades to a cold entry, nothing more.
    (void)store_.put(key, result.value());
  }
  return result;
}

}  // namespace sca::llm
