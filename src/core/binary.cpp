#include "core/binary.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/folds.hpp"
#include "ml/metrics.hpp"
#include "obs/log.hpp"

namespace sca::core {
namespace {

struct BinaryRow {
  const std::string* source;
  int label;      // kHumanClass / kChatGptClass
  int challenge;  // 0-based
  int year;
};

/// Collects the balanced per-year binary rows: every transformed sample is
/// "ChatGPT"; an equal number of human samples per challenge is "human".
std::vector<BinaryRow> binaryRows(YearExperiment& year,
                                  std::size_t challengeLimit) {
  const corpus::YearDataset& corpusData = year.corpusData();
  const llm::TransformedDataset& transformed = year.transformedData();

  std::vector<BinaryRow> rows;
  std::vector<std::size_t> chatgptPerChallenge(
      corpusData.challenges.size(), 0);
  for (const llm::TransformedSample& sample : transformed.samples) {
    if (static_cast<std::size_t>(sample.challengeIndex) >= challengeLimit) {
      continue;
    }
    rows.push_back(BinaryRow{&sample.source, kChatGptClass,
                             sample.challengeIndex, year.year()});
    ++chatgptPerChallenge[static_cast<std::size_t>(sample.challengeIndex)];
  }
  // Balance: one human sample per (author, challenge) until the ChatGPT
  // count of that challenge is matched.
  std::vector<std::size_t> humanPerChallenge(corpusData.challenges.size(), 0);
  for (const corpus::CodeSample& sample : corpusData.samples) {
    const auto c = static_cast<std::size_t>(sample.challengeIndex);
    if (c >= challengeLimit) continue;
    if (humanPerChallenge[c] >= chatgptPerChallenge[c]) continue;
    rows.push_back(BinaryRow{&sample.source, kHumanClass,
                             sample.challengeIndex, year.year()});
    ++humanPerChallenge[c];
  }
  return rows;
}

/// Leave-one-challenge-out evaluation over prepared rows. Returns, for each
/// fold, the predictions alongside the test rows.
struct FoldOutcome {
  std::size_t challenge;
  std::vector<const BinaryRow*> testRows;
  std::vector<int> predicted;
};

std::vector<FoldOutcome> runFolds(const std::vector<BinaryRow>& rows,
                                  std::size_t challengeCount,
                                  const ModelConfig& modelConfig) {
  std::vector<const std::string*> sources;
  std::vector<int> labels;
  std::vector<int> challenges;
  for (const BinaryRow& row : rows) {
    sources.push_back(row.source);
    labels.push_back(row.label);
    challenges.push_back(row.challenge);
  }
  const features::FeatureTable table = extractTable(sources);

  std::vector<FoldRows> folds;
  for (std::size_t held = 0; held < challengeCount; ++held) {
    folds.push_back(holdOut(challenges, static_cast<int>(held)));
    obs::logEvent(obs::LogLevel::kInfo, "core", "binary_fold",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.addUint("fold", held + 1);
                    fields.addUint("train", folds.back().train.size());
                    fields.addUint("test", folds.back().test.size());
                  });
  }
  // Every fold at once (predictFolds): the folds' vocabularies, selection
  // and predictions run concurrently, not fold after fold, and all their
  // trees share one loop. Memory stays bounded: a fold streams its rows
  // through the selector and keeps only its selected columns.
  std::vector<std::vector<int>> predicted =
      predictFolds(table, labels, folds, modelConfig);
  std::vector<FoldOutcome> outcomes(challengeCount);
  for (std::size_t held = 0; held < challengeCount; ++held) {
    FoldOutcome& outcome = outcomes[held];
    outcome.challenge = held;
    for (const std::size_t i : folds[held].test) {
      outcome.testRows.push_back(&rows[i]);
    }
    outcome.predicted = std::move(predicted[held]);
  }
  return outcomes;
}

double accuracyWhere(const FoldOutcome& outcome,
                     const std::function<bool(const BinaryRow&)>& keep) {
  std::size_t total = 0, hits = 0;
  for (std::size_t i = 0; i < outcome.testRows.size(); ++i) {
    const BinaryRow& row = *outcome.testRows[i];
    if (!keep(row)) continue;
    ++total;
    if (outcome.predicted[i] == row.label) ++hits;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

BinaryIndividualResult binaryIndividual(YearExperiment& year) {
  const std::size_t challengeCount = year.corpusData().challenges.size();
  const std::vector<BinaryRow> rows = binaryRows(year, challengeCount);
  ModelConfig modelConfig = year.config().model;
  modelConfig.selectTopK = year.config().binarySelectTopK;
  const std::vector<FoldOutcome> outcomes =
      runFolds(rows, challengeCount, modelConfig);

  BinaryIndividualResult result;
  result.year = year.year();
  double sum = 0.0;
  for (const FoldOutcome& outcome : outcomes) {
    const double acc =
        accuracyWhere(outcome, [](const BinaryRow&) { return true; });
    result.foldAccuracies.push_back(acc);
    sum += acc;
  }
  result.meanAccuracy = sum / static_cast<double>(challengeCount);
  return result;
}

BinaryCombinedResult binaryCombined(std::vector<YearExperiment*> years,
                                    std::size_t challengesPerYear) {
  if (years.empty()) {
    throw std::invalid_argument("binaryCombined: no years given");
  }
  if (years.size() > 3) {
    // The result has one accuracy column per year and an "All" column.
    throw std::invalid_argument("binaryCombined: at most three years");
  }
  BinaryCombinedResult result;
  result.challengesPerYear = challengesPerYear;
  std::vector<BinaryRow> rows;
  for (YearExperiment* year : years) {
    result.years.push_back(year->year());
    const std::vector<BinaryRow> yearRows =
        binaryRows(*year, challengesPerYear);
    rows.insert(rows.end(), yearRows.begin(), yearRows.end());
  }

  ModelConfig modelConfig = years[0]->config().model;
  modelConfig.selectTopK = years[0]->config().binarySelectTopK;
  const std::vector<FoldOutcome> outcomes =
      runFolds(rows, challengesPerYear, modelConfig);

  std::array<double, 4> sums{};
  for (const FoldOutcome& outcome : outcomes) {
    std::array<double, 4> row{};
    for (std::size_t y = 0; y < result.years.size(); ++y) {
      const int yearTag = result.years[y];
      row[y] = accuracyWhere(outcome, [yearTag](const BinaryRow& r) {
        return r.year == yearTag;
      });
    }
    row[3] = accuracyWhere(outcome, [](const BinaryRow&) { return true; });
    for (std::size_t c = 0; c < 4; ++c) sums[c] += row[c];
    result.perChallenge.push_back(row);
  }
  for (std::size_t c = 0; c < 4; ++c) {
    result.means[c] = sums[c] / static_cast<double>(challengesPerYear);
  }
  return result;
}

}  // namespace sca::core
