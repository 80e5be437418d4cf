// CachingClient: a persistent result cache in front of any LlmClient.
//
// Sits outermost in the decorator stack —
//
//   SyntheticLlm -> FaultInjectingClient -> ResilientClient -> CachingClient
//
// — so a warm hit skips the model, the injected faults AND the retries: a
// cached completion is one the resilience layer already validated.
//
// Key derivation. A conversation-held model is stateful (the synthetic
// LLM's conversation stickiness and per-call RNG draws mean transform(x)
// is NOT a pure function of x), so per-request keys fold the whole
// conversation prefix:
//
//   hi = combine64(hash64("sca-llm-v1"), configHash)   (model/config half)
//   lo_0 = hi
//   lo_n = combine64(lo_{n-1}, combine64(hash64(op_n), hash64(input_n)))
//
// A key therefore addresses "request n of THIS conversation against THIS
// configuration". Changing any model knob, the fault rate or the cache
// format version changes `hi`, so stale entries self-invalidate (they are
// simply never addressed again and age out via LRU).
//
// The byte-identical invariant (results equal with cache off, cold or
// warm) is preserved by an all-or-nothing prefix policy:
//
//   * while every request hits, the inner client is never consulted — its
//     RNG streams stay untouched, exactly as if the process had resumed a
//     finished conversation;
//   * on the FIRST miss, the served prefix is replayed through the inner
//     client (outputs discarded) to advance its state to where a cold run
//     would be, and from then on every request goes to the inner client
//     (lookups off, write-through on) — so a partially cached conversation
//     costs one cold run, never a wrong byte.
//
// Failed requests are never cached: a chain that degraded on step k misses
// at step k on the warm run, replays, and degrades identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "llm/client.hpp"
#include "llm/synthetic_llm.hpp"

namespace sca::llm {

/// The model/config half of every cache key: folds the format version,
/// all LlmOptions knobs and the fault rate of the stack the client fronts.
[[nodiscard]] std::uint64_t llmConfigHash(const LlmOptions& options,
                                          double faultRate);

class CachingClient : public LlmClient {
 public:
  CachingClient(LlmClient& inner, cache::DiskCache& store,
                std::uint64_t configHash);

  [[nodiscard]] util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge) override;
  [[nodiscard]] util::Result<std::string> tryTransform(
      const std::string& source) override;
  [[nodiscard]] std::string_view describe() const override {
    return "caching";
  }

  struct CacheStats {
    std::uint64_t hits = 0;     // served from the store, inner untouched
    std::uint64_t misses = 0;   // went to the inner client
    std::uint64_t replays = 0;  // prefix calls replayed on the first miss
  };
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  // One cache-served request, kept for potential replay. Challenges are
  // held by pointer (they own a non-copyable AST): callers must keep a
  // generated-for challenge alive for the conversation — which they do,
  // the corpus outlives every chain.
  struct Served {
    bool generate = false;
    const corpus::Challenge* challenge = nullptr;  // generate only
    std::string input;                             // transform only
  };

  [[nodiscard]] util::Result<std::string> dispatch(Served request);
  [[nodiscard]] util::Result<std::string> callInner(const Served& request);

  LlmClient& inner_;
  cache::DiskCache& store_;
  std::uint64_t configKey_ = 0;
  std::uint64_t convKey_ = 0;   // running conversation fold
  bool bypass_ = false;         // first miss happened: lookups off
  std::vector<Served> served_;  // cache-served prefix awaiting replay
  CacheStats stats_;
};

}  // namespace sca::llm
