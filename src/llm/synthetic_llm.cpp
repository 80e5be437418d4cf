#include "llm/synthetic_llm.hpp"

#include <cmath>

#include "llm/archetypes.hpp"
#include "style/apply.hpp"
#include "style/infer.hpp"

namespace sca::llm {

SyntheticLlm::SyntheticLlm(LlmOptions options)
    : options_(options),
      rng_(util::combine64(util::hash64("synthetic-llm-session"),
                           util::combine64(static_cast<std::uint64_t>(options.year),
                                           options.seed))) {}

std::string SyntheticLlm::emit(const ast::TranslationUnit& unit,
                               std::size_t index, std::uint64_t fingerprint,
                               bool mutate, bool sloppy) {
  style::StyleProfile profile = archetypePool()[index];
  if (mutate) {
    util::Rng mutateRng = rng_.derive("mutation").derive(calls_);
    profile = style::mutateProfile(profile, mutateRng, options_.mutationRate);
    style::applyLlmAccent(profile);
  }
  if (sloppy) {
    // Per-emission sloppiness applied AFTER the accent: each habit holds
    // with high probability on any one sample, and almost surely in
    // aggregate. Conversation re-emissions (chained transformation) skip
    // it — repeating back one's own words is the easy case.
    util::Rng sloppyRng = rng_.derive("sloppiness").derive(calls_);
    profile = style::mutateProfile(profile, sloppyRng, options_.sloppiness);
  }
  // The application stream is keyed by (input, archetype, call): repeated
  // requests keep the archetype's layout and structure but vary naming
  // details — as repeated ChatGPT calls do. The call component prevents
  // byte-identical duplicates from letting downstream classifiers memorize
  // specific texts instead of styles.
  util::Rng applyRng(util::combine64(
      util::hash64("llm-apply"),
      util::combine64(fingerprint,
                      util::combine64(static_cast<std::uint64_t>(index),
                                      static_cast<std::uint64_t>(calls_)))));
  std::string output = style::applyStyle(unit, profile, applyRng);
  lastArchetype_ = index;
  lastOutput_ = output;
  lastOutputArchetype_ = index;
  return output;
}

std::string SyntheticLlm::generate(const corpus::Challenge& challenge) {
  ++calls_;
  lastWasStay_ = false;
  const std::size_t index = rng_.weightedIndex(archetypeWeights(options_.year));
  return emit(challenge.ir, index, util::hash64(challenge.id),
              /*mutate=*/true, /*sloppy=*/true);
}

SyntheticLlm::InputMemo& SyntheticLlm::remember(const std::string& source) {
  if (!input_ || input_->source != source) {
    input_.emplace(InputMemo{source, ast::parse(source), util::hash64(source),
                             std::nullopt});
  }
  return *input_;
}

std::string SyntheticLlm::transform(const std::string& source) {
  ++calls_;
  InputMemo& input = remember(source);

  // Conversation context: chained transformation feeds our own previous
  // answer straight back in; the model then almost surely keeps the style.
  if (!lastOutput_.empty() && source == lastOutput_) {
    if (rng_.bernoulli(options_.stayConversation)) {
      lastWasStay_ = true;
      return emit(input.parsed.unit, lastOutputArchetype_, input.fingerprint,
                  /*mutate=*/false, /*sloppy=*/false);
    }
  } else {
    // Familiarity: input that already looks like one of our own styles is
    // usually re-emitted in exactly that style.
    if (!input.nearest) {
      input.nearest = style::nearestArchetype(style::inferProfile(
          input.parsed.unit, lexer::computeLayoutMetrics(source), source));
    }
    if (input.nearest->distance <= options_.familiarity &&
        rng_.bernoulli(options_.stayFamiliar)) {
      lastWasStay_ = true;
      return emit(input.parsed.unit, input.nearest->index, input.fingerprint,
                  /*mutate=*/false, /*sloppy=*/true);
    }
  }

  // Exploration: draw a fresh style from the year prior (optionally
  // tempered) and apply it with residual noise.
  lastWasStay_ = false;
  const auto& base = archetypeWeights(options_.year);
  std::vector<double> weights(base.begin(), base.end());
  if (options_.explorationTemper != 1.0) {
    for (double& w : weights) w = std::pow(w, options_.explorationTemper);
  }
  const std::size_t index = rng_.weightedIndex(weights);
  return emit(input.parsed.unit, index, input.fingerprint, /*mutate=*/true,
              /*sloppy=*/true);
}

}  // namespace sca::llm
