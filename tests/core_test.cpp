#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "core/attribution_model.hpp"
#include "core/binary.hpp"
#include "core/experiments.hpp"
#include "core/grouping.hpp"
#include "corpus/dataset.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sca::core {
namespace {

/// Scaled-down config so the full pipeline runs in seconds on one core.
ExperimentConfig tinyConfig() {
  ExperimentConfig config;
  config.authorCount = 16;
  config.steps = 5;
  config.chatgptSetPerChallenge = 4;
  config.model.forest.treeCount = 30;
  config.model.selectTopK = 150;
  return config;
}

TEST(AttributionModel, LearnsTwoClearAuthors) {
  // Two authors with very different styles, 8 samples each.
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 2);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 30;
  AttributionModel model(config);
  model.train(sources, labels);
  const auto predictions = model.predictAll(sources);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == labels[i]) ++hits;
  }
  EXPECT_GE(hits, predictions.size() - 1);  // training-set accuracy
  EXPECT_EQ(model.classCount(), 2);
}

TEST(AttributionModel, TrainValidatesInput) {
  AttributionModel model;
  EXPECT_THROW(model.train({}, {}), std::invalid_argument);
  EXPECT_THROW(model.train({"int main(){}"}, {0, 1}), std::invalid_argument);
}

TEST(AttributionModel, ProbaHasClassDimension) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2018, 3);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 15;
  AttributionModel model(config);
  model.train(sources, labels);
  EXPECT_EQ(model.predictProba(sources[0]).size(), 3u);
}

TEST(AttributionModel, SaveLoadKeepsBehaviour) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 4);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 20;
  config.selectTopK = 100;
  AttributionModel model(config);
  model.train(sources, labels);

  std::stringstream buffer;
  model.save(buffer);
  const AttributionModel restored = AttributionModel::load(buffer);
  EXPECT_EQ(restored.classCount(), model.classCount());
  for (const std::string& source : sources) {
    EXPECT_EQ(restored.predict(source), model.predict(source));
    EXPECT_EQ(restored.predictProba(source), model.predictProba(source));
  }
}

TEST(AttributionModel, TopFeaturesAreNamedAndNormalized) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 6);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 25;
  config.selectTopK = 120;
  AttributionModel model(config);
  model.train(sources, labels);
  const auto top = model.topFeatures(10);
  ASSERT_EQ(top.size(), 10u);
  double previous = 1.0;
  for (const auto& [name, importance] : top) {
    EXPECT_FALSE(name.empty());
    EXPECT_GT(importance, 0.0);
    EXPECT_LE(importance, previous + 1e-12);
    previous = importance;
  }
}

TEST(AttributionModel, LoadRejectsCorruptStream) {
  std::stringstream bad("not-a-model v9");
  EXPECT_THROW(AttributionModel::load(bad), std::runtime_error);
}

TEST(AttributionModel, SaveFileLoadFileRoundTrip) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2018, 3);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config;
  config.forest.treeCount = 10;
  AttributionModel model(config);
  model.train(sources, labels);
  const std::string path = ::testing::TempDir() + "/sca_model.txt";
  model.saveFile(path);
  const AttributionModel restored = AttributionModel::loadFile(path);
  EXPECT_EQ(restored.predict(sources[0]), model.predict(sources[0]));
  EXPECT_THROW(AttributionModel::loadFile(path + ".missing"),
               std::runtime_error);
}

TEST(Grouping, FeatureBasedKeysOnModalLabel) {
  llm::TransformedDataset transformed;
  transformed.year = 2018;
  for (int c = 0; c < 2; ++c) {
    for (int step = 1; step <= 4; ++step) {
      llm::TransformedSample s;
      s.source = "int main() { return 0; }";
      s.challengeIndex = c;
      s.setting = llm::Setting::ChatGptNct;
      s.step = step;
      transformed.samples.push_back(std::move(s));
    }
  }
  // Labels: 7 (majority) for steps 1-3, 2 otherwise.
  std::vector<int> labels;
  for (int c = 0; c < 2; ++c) {
    labels.insert(labels.end(), {7, 7, 7, 2});
  }
  const ChatGptSet set =
      buildChatGptSet(transformed, labels, Approach::FeatureBased, 2);
  EXPECT_EQ(set.targetLabel, 7);
  EXPECT_EQ(set.sampleIndices.size(), 4u);  // 2 per challenge
  for (const std::size_t i : set.sampleIndices) {
    EXPECT_EQ(labels[i], 7);
  }
}

TEST(Grouping, NaiveTakesFirstResponses) {
  llm::TransformedDataset transformed;
  for (int step = 4; step >= 1; --step) {  // deliberately unsorted
    llm::TransformedSample s;
    s.source = "x";
    s.challengeIndex = 0;
    s.step = step;
    transformed.samples.push_back(std::move(s));
  }
  const std::vector<int> labels = {9, 9, 9, 9};
  const ChatGptSet set =
      buildChatGptSet(transformed, labels, Approach::Naive, 2);
  EXPECT_EQ(set.targetLabel, -1);
  ASSERT_EQ(set.sampleIndices.size(), 2u);
  // first responses = lowest steps = indices 3 (step 1) and 2 (step 2)
  EXPECT_EQ(transformed.samples[set.sampleIndices[0]].step +
                transformed.samples[set.sampleIndices[1]].step,
            3);
}

TEST(ExperimentConfig, EnvOverrides) {
  ::setenv("SCA_AUTHORS", "33", 1);
  ::setenv("SCA_TREES", "44", 1);
  const ExperimentConfig config = ExperimentConfig::fromEnv();
  EXPECT_EQ(config.authorCount, 33u);
  EXPECT_EQ(config.model.forest.treeCount, 44u);
  ::unsetenv("SCA_AUTHORS");
  ::unsetenv("SCA_TREES");
  const ExperimentConfig fresh = ExperimentConfig::fromEnv();
  EXPECT_EQ(fresh.authorCount, 204u);
}

class YearExperimentTest : public ::testing::Test {
 protected:
  YearExperimentTest() : experiment_(2018, tinyConfig()) {}
  YearExperiment experiment_;
};

TEST_F(YearExperimentTest, StagesHaveConsistentShapes) {
  const corpus::YearDataset& data = experiment_.corpusData();
  EXPECT_EQ(data.samples.size(), 16u * 8u);
  const llm::TransformedDataset& transformed = experiment_.transformedData();
  EXPECT_EQ(transformed.samples.size(), 4u * 5u * 8u);
  const std::vector<int>& labels = experiment_.oracleLabels();
  EXPECT_EQ(labels.size(), transformed.samples.size());
  for (const int label : labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 16);
  }
}

TEST_F(YearExperimentTest, StyleCountsBounded) {
  const auto counts = experiment_.styleCounts();
  ASSERT_EQ(counts.perChallenge.size(), 8u);
  EXPECT_GT(counts.maxCount, 0u);
  for (const auto& row : counts.perChallenge) {
    for (const std::size_t c : row) {
      EXPECT_LE(c, 5u);  // never more styles than steps per setting
    }
  }
  for (const double avg : counts.averages) {
    EXPECT_GE(avg, 0.0);
    EXPECT_LE(avg, 5.0);
  }
}

TEST_F(YearExperimentTest, DiversityRanksAndFilters) {
  const auto rows = experiment_.diversity(2);
  double totalPercent = 0.0;
  std::size_t previous = SIZE_MAX;
  for (const auto& row : rows) {
    EXPECT_LE(row.occurrences, previous);
    previous = row.occurrences;
    EXPECT_GE(row.occurrences, 2u);
    totalPercent += row.percent;
  }
  EXPECT_LE(totalPercent, 100.0 + 1e-9);
  // filtered + kept account for every distinct label
  const auto all = experiment_.diversity(1);
  EXPECT_EQ(all.size(), rows.size() + experiment_.diversityFilteredCount(2));
}

TEST_F(YearExperimentTest, AttributionProducesEightFolds) {
  const auto result = experiment_.attribution(Approach::FeatureBased);
  EXPECT_EQ(result.folds.size(), 8u);
  EXPECT_GE(result.targetLabel, 0);
  EXPECT_GT(result.setSize, 0u);
  EXPECT_GT(result.meanAccuracy, 0.3);  // tiny corpus, loose bound
  EXPECT_GE(result.chatgptCorrectPercent, 0.0);
  EXPECT_LE(result.chatgptCorrectPercent, 100.0);
  for (const auto& fold : result.folds) {
    EXPECT_GE(fold.accuracy205, 0.0);
    EXPECT_LE(fold.accuracy205, 1.0);
  }
}

TEST_F(YearExperimentTest, NaiveSetIgnoresLabels) {
  const auto naive = experiment_.attribution(Approach::Naive);
  EXPECT_EQ(naive.targetLabel, -1);
  EXPECT_EQ(naive.folds.size(), 8u);
}

TEST(Binary, IndividualBalancedAndAccurate) {
  YearExperiment experiment(2017, tinyConfig());
  const auto result = binaryIndividual(experiment);
  EXPECT_EQ(result.year, 2017);
  EXPECT_EQ(result.foldAccuracies.size(), 8u);
  EXPECT_GT(result.meanAccuracy, 0.5);  // must beat coin flip
}

TEST(Binary, CombinedCoversYearsAndAllColumn) {
  YearExperiment y2017(2017, tinyConfig());
  YearExperiment y2018(2018, tinyConfig());
  const auto result = binaryCombined({&y2017, &y2018}, 3);
  EXPECT_EQ(result.years, (std::vector<int>{2017, 2018}));
  EXPECT_EQ(result.perChallenge.size(), 3u);
  for (const auto& row : result.perChallenge) {
    // "All" column is a weighted combination; with equal sizes it lies
    // within [min, max] of the per-year accuracies.
    const double lo = std::min(row[0], row[1]);
    const double hi = std::max(row[0], row[1]);
    EXPECT_GE(row[3] + 1e-9, lo);
    EXPECT_LE(row[3] - 1e-9, hi);
  }
}

TEST(Binary, CombinedRejectsMoreThanThreeYears) {
  // The result has three per-year columns; a fourth year used to be
  // dropped from them silently.
  std::vector<YearExperiment> years;
  for (const int year : {2017, 2018, 2019, 2017}) {
    years.emplace_back(year, tinyConfig());
  }
  EXPECT_THROW((void)binaryCombined({&years[0], &years[1], &years[2],
                                     &years[3]}),
               std::invalid_argument);
  EXPECT_THROW((void)binaryCombined({}), std::invalid_argument);
}

// Golden pins at tinyConfig(): hashes of model text, selector gains and
// fold accuracies, recorded before the fold models moved onto a shared
// feature table. Every table in the paper comes out of these paths, so a
// change to vocabulary fitting, row projection, selection or fold
// assembly that moves one bit shows up here.

std::uint64_t bitsHash(const std::vector<double>& values) {
  std::uint64_t h = util::hash64("bits");
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = util::combine64(h, bits);
  }
  return h;
}

std::string modelHash(std::size_t selectTopK) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2018, 16);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId);
  }
  ModelConfig config = tinyConfig().model;
  config.selectTopK = selectTopK;
  AttributionModel model(config);
  model.train(sources, labels);
  std::ostringstream text;
  model.save(text);
  return util::toHex64(util::hash64(text.str()));
}

TEST(GoldenModel, SaveTextWithSelection) {
  EXPECT_EQ(modelHash(tinyConfig().model.selectTopK), "e27e487e1e89db84");
}

TEST(GoldenModel, SaveTextAtIdentity) {
  EXPECT_EQ(modelHash(0), "427373238bd221cb");
}

/// FeatureSelector::gains() over the extracted rows of a 16-author year,
/// with the author labels folded onto `classes` classes.
std::string gainsHash(int classes) {
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 16);
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& s : ds.samples) {
    sources.push_back(s.source);
    labels.push_back(s.authorId % classes);
  }
  features::FeatureExtractor extractor(tinyConfig().model.extractor);
  extractor.fit(sources);
  features::FeatureSelector selector;
  selector.fit(extractor.transformAll(sources), labels, 40);
  std::uint64_t h = bitsHash(selector.gains());
  for (const std::size_t idx : selector.selected()) h = util::combine64(h, idx);
  return util::toHex64(h);
}

TEST(GoldenSelector, TwoClassGains) {
  EXPECT_EQ(gainsHash(2), "483d1a522454607f");
}

TEST(GoldenSelector, ManyClassGains) {
  EXPECT_EQ(gainsHash(16), "d68e3d94ccbe9120");
}

std::string foldsHash(const YearExperiment::AttributionResult& result) {
  std::vector<double> values;
  for (const YearExperiment::AttributionFold& fold : result.folds) {
    values.push_back(fold.accuracy205);
    values.push_back(fold.chatgptCorrect ? 1.0 : 0.0);
    values.push_back(fold.targetCorrect ? 1.0 : 0.0);
  }
  return util::toHex64(bitsHash(values));
}

TEST_F(YearExperimentTest, GoldenFeatureBasedFolds) {
  EXPECT_EQ(foldsHash(experiment_.attribution(Approach::FeatureBased)),
            "8bbd14ac066d9f8a");
}

TEST_F(YearExperimentTest, GoldenNaiveFolds) {
  EXPECT_EQ(foldsHash(experiment_.attribution(Approach::Naive)),
            "f8708a9f1b8e687f");
}

TEST_F(YearExperimentTest, GoldenBaselineFolds) {
  EXPECT_EQ(util::toHex64(bitsHash(experiment_.baselineFoldAccuracies())),
            "e4787348356db0b1");
}

TEST(Binary, GoldenIndividualFolds) {
  YearExperiment experiment(2017, tinyConfig());
  const BinaryIndividualResult result = binaryIndividual(experiment);
  EXPECT_EQ(util::toHex64(bitsHash(result.foldAccuracies)),
            "283462bfbc580edd");
}

TEST(Binary, GoldenCombinedFolds) {
  YearExperiment y2017(2017, tinyConfig());
  YearExperiment y2018(2018, tinyConfig());
  std::vector<double> values;
  for (const auto& row : binaryCombined({&y2017, &y2018}, 3).perChallenge) {
    values.insert(values.end(), row.begin(), row.end());
  }
  EXPECT_EQ(util::toHex64(bitsHash(values)), "589ea39c6a01efe9");
}

}  // namespace
}  // namespace sca::core
