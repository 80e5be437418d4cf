#include "llm/pipelines.hpp"

#include <cstdlib>
#include <optional>

#include "cache/store.hpp"
#include "llm/caching_client.hpp"
#include "llm/checkpoint.hpp"
#include "llm/fault_injection.hpp"
#include "llm/resilient_client.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"
#include "style/archetypes.hpp"

namespace sca::llm {
namespace {

/// One step of either schedule: ask the client, degrade on final failure.
/// Returns the step's output, or the Status when degradation is off.
util::Result<std::string> transformStep(LlmClient& client,
                                        const std::string& input,
                                        const std::string& fallback,
                                        const TransformPolicy& policy) {
  util::Result<std::string> result = client.tryTransform(input);
  if (result.ok()) return result;
  if (!policy.degradeOnFailure) return result.status();
  static const obs::Counter kDegradedSteps =
      obs::MetricsRegistry::global().counter("llm_degraded_steps");
  kDegradedSteps.add();
  obs::logEvent(obs::LogLevel::kWarn, "llm", "step_degraded",
                [&](util::JsonObjectBuilder& fields) {
                  fields.add("error", result.status().toString());
                });
  return fallback;
}

}  // namespace

std::string_view settingLabel(Setting setting) noexcept {
  switch (setting) {
    case Setting::ChatGptNct: return "+N";
    case Setting::ChatGptCt: return "+C";
    case Setting::HumanNct: return "~N";
    case Setting::HumanCt: return "~C";
  }
  return "?";
}

const std::vector<Setting>& allSettings() {
  static const std::vector<Setting> kSettings = {
      Setting::ChatGptNct,
      Setting::ChatGptCt,
      Setting::HumanNct,
      Setting::HumanCt,
  };
  return kSettings;
}

util::Result<std::vector<std::string>> nonChainingTransform(
    LlmClient& client, const std::string& original, std::size_t steps,
    const TransformPolicy& policy) {
  std::vector<std::string> out;
  out.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    // NCT re-transforms the original every step, so the original is also
    // the honest degradation fallback: an API that failed this step simply
    // left CGc_{i+1} untransformed.
    util::Result<std::string> step =
        transformStep(client, original, original, policy);
    if (!step.ok()) return step.status();
    out.push_back(std::move(step.value()));
  }
  return out;
}

util::Result<std::vector<std::string>> chainingTransform(
    LlmClient& client, const std::string& original, std::size_t steps,
    const TransformPolicy& policy) {
  std::vector<std::string> out;
  out.reserve(steps);
  const std::string* previous = &original;
  for (std::size_t i = 0; i < steps; ++i) {
    // CT's conversation state is the last good output; a failed step
    // repeats it, and the chain continues from there.
    util::Result<std::string> step =
        transformStep(client, *previous, *previous, policy);
    if (!step.ok()) return step.status();
    out.push_back(std::move(step.value()));
    previous = &out.back();
  }
  return out;
}

std::vector<std::string> nonChainingTransform(SyntheticLlm& llm,
                                              const std::string& original,
                                              std::size_t steps) {
  return nonChainingTransform(static_cast<LlmClient&>(llm), original, steps)
      .value();
}

std::vector<std::string> chainingTransform(SyntheticLlm& llm,
                                           const std::string& original,
                                           std::size_t steps) {
  return chainingTransform(static_cast<LlmClient&>(llm), original, steps)
      .value();
}

BuildOptions BuildOptions::fromEnv(std::size_t steps) {
  BuildOptions options;
  options.steps = steps;
  if (const char* raw = std::getenv("SCA_FAULT_RATE");
      raw != nullptr && *raw != '\0') {
    char* end = nullptr;
    const double parsed = std::strtod(raw, &end);
    if (end != raw && parsed > 0.0) {
      options.faultRate = parsed;
    }
  }
  if (const char* dir = std::getenv("SCA_CHECKPOINT_DIR");
      dir != nullptr && *dir != '\0') {
    options.checkpointDir = dir;
  }
  options.resultCache = cache::DiskCache::processCache();
  return options;
}

TransformedDataset buildTransformedDataset(const corpus::YearDataset& yearData,
                                           std::size_t steps) {
  return buildTransformedDataset(yearData, BuildOptions::fromEnv(steps));
}

TransformedDataset buildTransformedDataset(const corpus::YearDataset& yearData,
                                           const BuildOptions& options) {
  const std::size_t steps = options.steps;
  TransformedDataset out;
  out.year = yearData.year;
  out.stepsPerSetting = steps;

  // One human author per year feeds the ±N / ±C settings (paper §IV-B:
  // "we selected one author from each year"). The paper's 2017 run behaved
  // as if that author's style was familiar to the model (±N stayed near 2.5
  // styles) while 2018/2019 authors were clearly out-of-distribution (±N of
  // 9.6 / 7.1). We reproduce the regime by picking the author whose style
  // is nearest to the repertoire for 2017 and farthest for other years.
  const bool pickFamiliar = yearData.year == 2017;
  int pick = 0;
  double best = pickFamiliar ? 2.0 : -1.0;
  for (const corpus::Author& author : yearData.authors) {
    // 2017: nearest to the model's default style (archetype 0) so that its
    // rewrites collapse onto the dominant label, as in Table V's A49.
    const double d =
        pickFamiliar
            ? style::StyleProfile::distance(author.profile,
                                            style::archetypePool()[0])
            : style::nearestArchetype(author.profile).distance;
    // Exact twins (distance 0) are excluded: the paper's author was a real
    // participant, not the model itself.
    if (pickFamiliar) {
      if (d > 1e-9 && d < best) {
        best = d;
        pick = author.id;
      }
    } else if (d > best) {
      best = d;
      pick = author.id;
    }
  }
  out.humanAuthorId = pick;

  const std::size_t challengeCount = yearData.challenges.size();

  // Originals are independent per challenge: each generation conversation
  // is seeded by the challenge index alone, so they parallelize without
  // changing a byte of output.
  struct Originals {
    std::string chatgpt;
    std::string human;
  };
  std::vector<Originals> originals = runtime::parallelMap<Originals>(
      challengeCount, [&](std::size_t c) {
        const corpus::Challenge& challenge = *yearData.challenges[c];
        LlmOptions genOptions;
        genOptions.year = yearData.year;
        genOptions.seed = util::combine64(util::hash64("gen"), c);
        SyntheticLlm genLlm(genOptions);
        LlmClient* genClient = &genLlm;
        std::optional<CachingClient> genCaching;
        if (options.resultCache != nullptr) {
          genCaching.emplace(genLlm, *options.resultCache,
                             llmConfigHash(genOptions, /*faultRate=*/0.0));
          genClient = &*genCaching;
        }
        Originals o;
        o.chatgpt = genClient->tryGenerate(challenge).value();
        o.human = corpus::renderSolution(
            yearData.authors[static_cast<std::size_t>(out.humanAuthorId)],
            challenge, yearData.year, static_cast<int>(c));
        return o;
      });
  out.chatgptOriginals.reserve(challengeCount);
  out.humanOriginals.reserve(challengeCount);
  for (Originals& o : originals) {
    out.chatgptOriginals.push_back(std::move(o.chatgpt));
    out.humanOriginals.push_back(std::move(o.human));
  }

  // A dedicated "conversation" per (setting, challenge) keeps the schedules
  // independent, as separate ChatGPT sessions would be — which is also what
  // makes them parallel tasks: each chain derives its seed from its own
  // (setting, challenge) pair, stays internally sequential (CT feeds every
  // output into the next step), and runs concurrently with the rest.
  // Ordered collection + the serial assembly loop below reproduce the
  // serial build byte for byte.
  //
  // Each chain is also the unit of resilience and of checkpointing: it gets
  // its own client stack (model -> fault injector -> resilient wrapper,
  // seeded by the chain), and its finished outputs are persisted atomically
  // so a killed build resumes from completed chains bit-identically.
  const std::vector<Setting>& settings = allSettings();
  const std::size_t chainCount = challengeCount * settings.size();
  std::vector<std::vector<std::string>> chains =
      runtime::parallelMap<std::vector<std::string>>(
          chainCount, [&](std::size_t task) {
            const std::size_t c = task / settings.size();
            const std::size_t settingIndex = task % settings.size();
            const Setting setting = settings[settingIndex];
            const bool chatgptOrigin = setting == Setting::ChatGptNct ||
                                       setting == Setting::ChatGptCt;
            const bool chaining =
                setting == Setting::ChatGptCt || setting == Setting::HumanCt;
            const std::string& original = chatgptOrigin
                                              ? out.chatgptOriginals[c]
                                              : out.humanOriginals[c];

            const std::uint64_t chainSeed =
                util::combine64(util::hash64(settingLabel(setting)), c);
            obs::Span chainSpan(
                "llm_chain_" + std::string(settingLabel(setting)), "llm");

            ChainKey key;
            key.year = yearData.year;
            key.settingIndex = settingIndex;
            key.settingLabel = std::string(settingLabel(setting));
            key.challenge = static_cast<int>(c);
            key.steps = steps;
            key.originHash = util::hash64(original);
            key.faultRate = options.faultRate;

            if (!options.checkpointDir.empty()) {
              util::Result<std::vector<std::string>> loaded =
                  loadChainCheckpoint(options.checkpointDir, key);
              if (loaded.ok()) {
                static const obs::Counter kChainsLoaded =
                    obs::MetricsRegistry::global().counter(
                        "ckpt_chains_loaded");
                kChainsLoaded.add();
                return std::move(loaded.value());
              }
            }

            SyntheticLlm llm(
                [&] {
                  LlmOptions llmOptions;
                  llmOptions.year = yearData.year;
                  llmOptions.seed = chainSeed;
                  return llmOptions;
                }());

            // Faults off = the bare model, exactly the historical call
            // sequence. Faults on = the full resilience stack; retries
            // recover the model's own completion (see fault_injection.hpp),
            // so the surviving bytes still match unless degradation hits.
            std::optional<FaultInjectingClient> faulty;
            std::optional<ResilientClient> resilient;
            LlmClient* client = &llm;
            if (options.faultRate > 0.0) {
              faulty.emplace(llm, FaultOptions::scaled(options.faultRate,
                                                       chainSeed));
              RetryPolicy retry;
              retry.seed = chainSeed;
              resilient.emplace(*faulty, retry);
              client = &*resilient;
            }
            // The result cache wraps outermost: a warm hit skips the model,
            // the injected faults and the retries alike, and the
            // conversation-folded key + replay-on-first-miss policy keeps
            // every byte identical to an uncached run (caching_client.hpp).
            std::optional<CachingClient> caching;
            if (options.resultCache != nullptr) {
              caching.emplace(*client, *options.resultCache,
                              llmConfigHash(llm.options(), options.faultRate));
              client = &*caching;
            }

            std::vector<std::string> outputs =
                (chaining ? chainingTransform(*client, original, steps)
                          : nonChainingTransform(*client, original, steps))
                    .value();

            if (!options.checkpointDir.empty()) {
              const util::Status written =
                  writeChainCheckpoint(options.checkpointDir, key, outputs);
              if (written.isOk()) {
                static const obs::Counter kChainsWritten =
                    obs::MetricsRegistry::global().counter(
                        "ckpt_chains_written");
                kChainsWritten.add();
              } else {
                obs::logEvent(obs::LogLevel::kWarn, "checkpoint",
                              "write_failed",
                              [&](util::JsonObjectBuilder& fields) {
                                fields.add("error", written.toString());
                              });
              }
            }
            return outputs;
          });

  out.samples.reserve(chainCount * steps);
  for (std::size_t task = 0; task < chainCount; ++task) {
    const std::size_t c = task / settings.size();
    const Setting setting = settings[task % settings.size()];
    // Taking the chain frees its spine once its outputs have moved out.
    std::vector<std::string> transformed = std::move(chains[task]);
    for (std::size_t i = 0; i < transformed.size(); ++i) {
      TransformedSample sample;
      sample.source = std::move(transformed[i]);
      sample.challengeIndex = static_cast<int>(c);
      sample.setting = setting;
      sample.step = static_cast<int>(i) + 1;
      out.samples.push_back(std::move(sample));
    }
  }
  return out;
}

}  // namespace sca::llm
