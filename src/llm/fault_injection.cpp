#include "llm/fault_injection.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace sca::llm {
namespace {

/// What the API returns when it declines: a refusal is a *successful*
/// HTTP response, so it surfaces as an OK Result that fails validation.
constexpr std::string_view kRefusalText =
    "I'm sorry, but I can't help with transforming this code.";

/// Fault schedules are seeded per chain, so the global fault counts are
/// stable across SCA_THREADS — but NOT across cache states: a warm result
/// cache serves completions without ever reaching this layer, so the
/// transport-level counts are runtime-tagged and stay out of the stable
/// (byte-compared) metrics section. Handles are cached per call site below.
obs::Counter faultCounter(const char* name) {
  return obs::MetricsRegistry::global().counter(name,
                                                obs::Stability::kRuntime);
}

}  // namespace

FaultOptions FaultOptions::scaled(double totalRate, std::uint64_t seed) {
  const double rate = std::clamp(totalRate, 0.0, 0.95);
  FaultOptions options;
  options.seed = seed;
  options.timeoutRate = rate * 0.25;
  options.rateLimitRate = rate * 0.25;
  options.emptyRate = rate * 0.20;
  options.truncateRate = rate * 0.15;
  options.garbageRate = rate * 0.15;
  return options;
}

FaultInjectingClient::FaultInjectingClient(LlmClient& inner,
                                           FaultOptions options)
    : inner_(inner),
      options_(options),
      rng_(util::combine64(util::hash64("fault-injection"), options.seed)) {}

FaultInjectingClient::FaultKind FaultInjectingClient::roll() {
  const double draw = rng_.uniformReal();
  double edge = options_.timeoutRate;
  if (draw < edge) return FaultKind::Timeout;
  edge += options_.rateLimitRate;
  if (draw < edge) return FaultKind::RateLimit;
  edge += options_.emptyRate;
  if (draw < edge) return FaultKind::Empty;
  edge += options_.truncateRate;
  if (draw < edge) return FaultKind::Truncate;
  edge += options_.garbageRate;
  if (draw < edge) return FaultKind::Garbage;
  return FaultKind::None;
}

std::string FaultInjectingClient::truncateOutput(const std::string& good,
                                                 double fraction) {
  // Cut just past an opening brace at (or before) the chosen point: the
  // unclosed brace guarantees the re-parse is not clean, so the resilience
  // layer's validator always catches the corruption.
  const std::size_t target = static_cast<std::size_t>(
      static_cast<double>(good.size()) * std::clamp(fraction, 0.0, 1.0));
  const std::size_t brace = good.rfind('{', target);
  if (brace != std::string::npos) return good.substr(0, brace + 1);
  const std::size_t anyBrace = good.find('{');
  if (anyBrace != std::string::npos) return good.substr(0, anyBrace + 1);
  return std::string();  // braceless source: "truncate to nothing"
}

std::string FaultInjectingClient::garbleOutput(const std::string& good) {
  // '@' is not in the language's alphabet, so the marker alone makes the
  // re-parse warn; keeping a prefix of the real code models the partially
  // rewritten, style-destroyed completions seen from real models.
  std::string out = "@@ garbled completion @@\n";
  out.append(good, 0, good.size() / 2);
  return out;
}

util::Result<std::string> FaultInjectingClient::dispatch(
    std::uint64_t requestKey, const std::function<std::string()>& call) {
  ++stats_.attempts;

  // Replay: a retry of the request whose completion we last corrupted is
  // served the stashed good completion — the model already produced it, so
  // its RNG stream must not advance again.
  if (pendingGood_.has_value() && pendingKey_ == requestKey) {
    std::string good = std::move(*pendingGood_);
    pendingGood_.reset();
    return good;
  }
  pendingGood_.reset();  // a different request invalidates the stash

  const FaultKind kind = roll();
  if (kind != FaultKind::None) {
    obs::logEvent(obs::LogLevel::kDebug, "llm", "fault_injected",
                  [&](util::JsonObjectBuilder& fields) {
                    static constexpr const char* kNames[] = {
                        "none", "timeout", "rate_limit", "empty",
                        "truncated", "garbage"};
                    fields.add("kind", kNames[static_cast<int>(kind)]);
                  });
  }
  switch (kind) {
    case FaultKind::Timeout: {
      ++stats_.timeouts;
      static const obs::Counter kTimeoutFaults =
          faultCounter("llm_faults_timeout");
      kTimeoutFaults.add();
      return util::Status(util::StatusCode::kTimeout, "injected timeout");
    }
    case FaultKind::RateLimit: {
      ++stats_.rateLimits;
      static const obs::Counter kRateLimitFaults =
          faultCounter("llm_faults_rate_limit");
      kRateLimitFaults.add();
      return util::Status(util::StatusCode::kRateLimited,
                          "injected rate limit");
    }
    case FaultKind::Empty: {
      ++stats_.empties;
      static const obs::Counter kEmptyFaults =
          faultCounter("llm_faults_empty");
      kEmptyFaults.add();
      return std::string(kRefusalText);
    }
    case FaultKind::Truncate: {
      ++stats_.truncations;
      static const obs::Counter kTruncatedFaults =
          faultCounter("llm_faults_truncated");
      kTruncatedFaults.add();
      std::string good = call();
      const double fraction = rng_.uniformReal(0.3, 0.9);
      std::string bad = truncateOutput(good, fraction);
      pendingGood_ = std::move(good);
      pendingKey_ = requestKey;
      return bad;
    }
    case FaultKind::Garbage: {
      ++stats_.garbled;
      static const obs::Counter kGarbageFaults =
          faultCounter("llm_faults_garbage");
      kGarbageFaults.add();
      std::string good = call();
      std::string bad = garbleOutput(good);
      pendingGood_ = std::move(good);
      pendingKey_ = requestKey;
      return bad;
    }
    case FaultKind::None:
      break;
  }
  return call();
}

util::Result<std::string> FaultInjectingClient::tryGenerate(
    const corpus::Challenge& challenge) {
  const std::uint64_t key =
      util::combine64(util::hash64("generate"), util::hash64(challenge.id));
  return dispatch(key, [&] {
    return inner_.tryGenerate(challenge).valueOr(std::string());
  });
}

util::Result<std::string> FaultInjectingClient::tryTransform(
    const std::string& source) {
  const std::uint64_t key =
      util::combine64(util::hash64("transform"), util::hash64(source));
  return dispatch(key, [&] {
    return inner_.tryTransform(source).valueOr(std::string());
  });
}

}  // namespace sca::llm
