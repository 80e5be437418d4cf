// LlmClient: the seam between the transformation pipeline and whatever
// produces completions.
//
// The paper's pipeline makes 20,000+ ChatGPT API calls (§IV-B: generation
// plus 50-step NCT/CT schedules per setting). A real backend fails —
// timeouts, 429s, refusals, truncated completions, rewrites that no longer
// parse — so the pipeline talks to this interface instead of to a concrete
// model, and resilience composes as decorators:
//
//   SyntheticLlm                  the in-process model (always succeeds)
//     ^ FaultInjectingClient      deterministically injects API failures
//       ^ ResilientClient         retry/backoff, circuit breaker, budget,
//                                 output validation
//
// Every method returns Result<std::string>: an error Status is a failed
// API call, an OK value is whatever the backend produced — which may still
// be garbage, which is the validator's problem, not the transport's.
#pragma once

#include <string>

#include "corpus/challenges.hpp"
#include "util/status.hpp"

namespace sca::llm {

class LlmClient {
 public:
  virtual ~LlmClient() = default;

  /// "Write C++ code that solves this problem."
  [[nodiscard]] virtual util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge) = 0;

  /// "Transform this code, keeping behaviour identical." (paper Fig. 1 (2))
  [[nodiscard]] virtual util::Result<std::string> tryTransform(
      const std::string& source) = 0;

  /// Short layer name for logs/telemetry ("synthetic", "faulty", ...).
  [[nodiscard]] virtual std::string_view describe() const = 0;
};

}  // namespace sca::llm
