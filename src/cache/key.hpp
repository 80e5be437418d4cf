// Content-addressed cache keys.
//
// A key is 128 bits split across two 64-bit words with distinct roles:
//
//   hi — the *configuration* half: a namespace tag (which subsystem owns
//        the entry, and its serialization format version) folded with a
//        hash of every knob the value depends on. Bumping a format
//        version or changing a model option changes hi, so stale entries
//        are simply never addressed again — they age out through LRU
//        instead of being migrated or poisoning reads.
//   lo — the *content* half: the request/content fingerprint (for LLM
//        entries, the conversation-folded request hash).
//
// Collisions require both halves to collide, and the halves are derived
// from independent inputs, so a 64-bit content hash is comfortably safe
// for the corpus sizes this pipeline sees.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sca::cache {

struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) noexcept {
    return !(a == b);
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept {
    return static_cast<std::size_t>(util::combine64(key.hi, key.lo));
  }
};

/// 32 lowercase hex chars (hi then lo) — the on-disk spelling used by the
/// index and the sharded value-file names.
[[nodiscard]] inline std::string formatKey(const CacheKey& key) {
  return util::toHex64(key.hi) + util::toHex64(key.lo);
}

/// Parses exactly formatKey's output. False (out untouched) otherwise.
[[nodiscard]] inline bool parseKey(std::string_view text, CacheKey* out) {
  if (text.size() != 32) return false;
  CacheKey key;
  if (!util::parseHex64(text.substr(0, 16), &key.hi)) return false;
  if (!util::parseHex64(text.substr(16, 16), &key.lo)) return false;
  *out = key;
  return true;
}

}  // namespace sca::cache
