// SyntheticLlm: the stand-in for the ChatGPT API (see DESIGN.md §1).
//
// Two operations mirror the paper's threat model (§III-D): `generate`
// produces a solution for a challenge statement; `transform` is the GPT(.)
// function of §IV-B — it rewrites a program's stylistic features while
// preserving its functionality.
//
// Behavioural properties reproduced from the paper:
//   * bounded repertoire: every output style is one of the fixed 12
//     archetypes (max 12 observable styles, §VI-F);
//   * skewed usage: fresh styles are sampled under year-specific weights
//     (Tables V-VII);
//   * familiarity attraction: input that already matches one of the model's
//     own styles is usually re-emitted in exactly that style
//     (`stayFamiliar`), so NCT on ChatGPT code stays near one archetype
//     (Table IV "+N" is small);
//   * conversation stickiness: when the input is the model's own previous
//     output — which is precisely what chaining transformation feeds it —
//     the style is retained almost surely (`stayConversation`), so CT
//     converges (Table IV "+C" < "+N");
//   * out-of-distribution input (human code) gets restyled freely from the
//     year prior, which is why "~N" shows the most styles in Table IV.
//
// `transform` remembers its last input: the text, its parse, its
// fingerprint and, once the familiarity check has asked for it, its
// nearest archetype. NCT sends one original at every step, so only a
// chain's first call parses and profiles it. Everything remembered is a
// pure function of the text and the session RNG is drawn in the same order
// either way, so the memo changes no output byte (see DESIGN.md §2.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ast/parser.hpp"
#include "corpus/challenges.hpp"
#include "llm/client.hpp"
#include "style/archetypes.hpp"
#include "style/profile.hpp"
#include "util/rng.hpp"

namespace sca::llm {

struct LlmOptions {
  int year = 2017;                // selects archetype weights
  std::uint64_t seed = 1;         // conversation seed
  double mutationRate = 0.01;    // per-dimension noise on explored styles
  /// Per-dimension probability that one emission deviates from the habit
  /// (the model is *mostly* tidy — a statistical accent, not a perfect
  /// rule; what lets Table X's binary classifier work on 1,600 samples
  /// while the 205-class naive set of Table VIII cannot rely on it).
  double sloppiness = 0.02;
  double familiarity = 0.30;      // style distance below which input is "own"
  double stayFamiliar = 0.93;     // P(re-emit nearest archetype) when familiar
  double stayConversation = 0.99; // P(keep style) when input == last output
  double explorationTemper = 1.0; // exponent on weights for unfamiliar input
};

class SyntheticLlm : public LlmClient {
 public:
  explicit SyntheticLlm(LlmOptions options);

  /// "Write C++ code that solves this problem." Returns compilable source
  /// in one of the model's styles.
  [[nodiscard]] std::string generate(const corpus::Challenge& challenge);

  /// "Transform this code: change variable and function names, code
  /// structure, and so on, keeping behaviour identical." (paper Fig. 1 (2)).
  [[nodiscard]] std::string transform(const std::string& source);

  // LlmClient: the in-process model is the always-healthy backend — its
  // fallible face simply wraps the infallible calls, so the call sequence
  // (and therefore every byte of output) is identical whether the pipeline
  // holds a SyntheticLlm or an undecorated LlmClient.
  [[nodiscard]] util::Result<std::string> tryGenerate(
      const corpus::Challenge& challenge) override {
    return generate(challenge);
  }
  [[nodiscard]] util::Result<std::string> tryTransform(
      const std::string& source) override {
    return transform(source);
  }
  [[nodiscard]] std::string_view describe() const override {
    return "synthetic";
  }

  /// Index of the archetype used by the most recent generate/transform —
  /// exposed for analyses and tests, never used by the attribution models.
  [[nodiscard]] std::size_t lastArchetype() const noexcept {
    return lastArchetype_;
  }

  /// Whether the most recent transform was a "stay" (style retained).
  [[nodiscard]] bool lastWasStay() const noexcept { return lastWasStay_; }

  /// Number of generate+transform calls made so far ("API usage").
  [[nodiscard]] std::size_t callCount() const noexcept { return calls_; }

  [[nodiscard]] const LlmOptions& options() const noexcept { return options_; }

 private:
  /// Emits `unit` in the style of archetype `index`, deterministically for
  /// a given (input fingerprint, archetype) pair. `mutate` adds the
  /// residual-noise perturbation used for explored styles.
  [[nodiscard]] std::string emit(const ast::TranslationUnit& unit,
                                 std::size_t index, std::uint64_t fingerprint,
                                 bool mutate, bool sloppy);

  /// The last input `transform` saw, with what it derived from that text.
  struct InputMemo {
    std::string source;
    ast::ParseResult parsed;
    std::uint64_t fingerprint = 0;
    std::optional<style::NearestArchetype> nearest;  // set on first need
  };

  /// The memo of `source`, rebuilt unless `source` equals the last input.
  [[nodiscard]] InputMemo& remember(const std::string& source);

  LlmOptions options_;
  util::Rng rng_;
  std::size_t lastArchetype_ = 0;
  bool lastWasStay_ = false;
  std::size_t calls_ = 0;
  std::string lastOutput_;        // conversation context
  std::size_t lastOutputArchetype_ = 0;
  std::optional<InputMemo> input_;
};

}  // namespace sca::llm
