#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "core/binary.hpp"
#include "core/experiments.hpp"
#include "core/grouping.hpp"
#include "corpus/authors.hpp"
#include "corpus/challenges.hpp"
#include "corpus/dataset.hpp"
#include "features/extractor.hpp"
#include "features/selection.hpp"
#include "llm/pipelines.hpp"
#include "ml/dataset.hpp"
#include "ml/matrix.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace sca;

/// Order-sensitive fold of everything an outcome covers.
class Digest {
 public:
  void add(std::uint64_t value) { state_ = util::combine64(state_, value); }
  void addDouble(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  void addText(std::string_view text) { add(util::hash64(text)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = util::hash64("perfbench-digest-v1");
};

std::string pct(double fraction) {
  return util::formatDouble(fraction * 100.0, 1);
}

std::string mark(bool ok) { return ok ? "v" : "x"; }

std::uint64_t lifetimeCounter(const char* name) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot(obs::Scope::kLifetime);
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

corpus::YearDataset buildCorpus(int year, std::size_t authors) {
  Span span("corpus.build");
  corpus::YearDataset data = corpus::buildYearDataset(year, authors);
  span.setItems(data.samples.size());
  return data;
}

llm::TransformedDataset buildTransformed(const corpus::YearDataset& data,
                                         std::size_t steps) {
  llm::BuildOptions options;
  options.steps = steps;
  const std::uint64_t degradedBefore = lifetimeCounter("llm_degraded_steps");
  Span span("llm.transform");
  llm::TransformedDataset out = llm::buildTransformedDataset(data, options);
  span.setItems(out.samples.size());
  SpanRecorder::global().count(
      "llm.degraded_steps",
      lifetimeCounter("llm_degraded_steps") - degradedBefore);
  return out;
}

std::uint64_t sourcesHash(const llm::TransformedDataset& transformed) {
  Digest digest;
  for (const llm::TransformedSample& sample : transformed.samples) {
    digest.addText(sample.source);
  }
  return digest.value();
}

/// core::AttributionModel split into its public steps, each in a span:
/// the same calls in the same order as AttributionModel::train and
/// AttributionModel::predictAll, hence bit-identical predictions.
class SplitModel {
 public:
  void train(const std::vector<std::string>& sources,
             const std::vector<int>& labels, const core::ModelConfig& config) {
    std::vector<std::vector<double>> x;
    extractor_ = features::FeatureExtractor(config.extractor);
    {
      Span span("features.fit");
      extractor_.fit(sources);
    }
    {
      Span span("features.extract");
      x = extractor_.transformAll(sources);
      span.setItems(sources.size());
    }
    ml::Dataset data;
    {
      Span span("features.select");
      selector_ = features::FeatureSelector();
      selector_.fit(x, labels, config.selectTopK);
    }
    {
      Span span("features.project");
      data.x = selector_.applyAll(x);
    }
    data.y = labels;
    Span span("ml.fit");
    forest_ = ml::RandomForest(config.forest);
    forest_.fit(data);
    span.setItems(forest_.treeCount());
  }

  [[nodiscard]] std::vector<int> predictAll(
      const std::vector<std::string>& sources) const {
    std::vector<std::vector<double>> rows;
    {
      Span span("features.extract");
      rows = runtime::parallelMap<std::vector<double>>(
          sources.size(),
          [&](std::size_t i) {
            return selector_.apply(extractor_.transform(sources[i]));
          },
          runtime::ParallelOptions{.maxWorkers = 0, .grain = 8});
      span.setItems(sources.size());
    }
    Span span("ml.predict");
    std::vector<int> out = forest_.predictAll(rows);
    span.setItems(rows.size());
    return out;
  }

 private:
  features::FeatureExtractor extractor_;
  features::FeatureSelector selector_;
  ml::RandomForest forest_;
};

std::vector<std::string> sourcesOf(const corpus::YearDataset& data) {
  std::vector<std::string> out;
  out.reserve(data.samples.size());
  for (const corpus::CodeSample& sample : data.samples) {
    out.push_back(sample.source);
  }
  return out;
}

std::vector<int> authorLabelsOf(const corpus::YearDataset& data) {
  std::vector<int> out;
  out.reserve(data.samples.size());
  for (const corpus::CodeSample& sample : data.samples) {
    out.push_back(sample.authorId);
  }
  return out;
}

std::vector<std::string> sourcesOf(const llm::TransformedDataset& data) {
  std::vector<std::string> out;
  out.reserve(data.samples.size());
  for (const llm::TransformedSample& sample : data.samples) {
    out.push_back(sample.source);
  }
  return out;
}

core::ExperimentConfig experimentConfig(const SeedConfig& seed, bool smoke) {
  core::ExperimentConfig config;
  if (smoke) {
    config.authorCount = 16;
    config.steps = 4;
    config.chatgptSetPerChallenge = 3;
    config.model.forest.treeCount = 10;
  }
  config.model.forest.seed = seed.forestSeed;
  return config;
}

// ---------------------------------------------------------------- attrib205
// Table IX, one year: feature-based 205-class leave-one-challenge-out CV.

class Attrib205 final : public Workload {
 public:
  Attrib205(const SeedConfig& seed, bool smoke)
      : seed_(seed), config_(experimentConfig(seed, smoke)) {}

  void setup() override {
    experiment_.emplace(seed_.year, config_);
    (void)experiment_->oracleLabels();
  }

  void setupTraced() override {
    corpus_ = buildCorpus(seed_.year, config_.authorCount);
    transformed_ = buildTransformed(*corpus_, config_.steps);
    SplitModel oracle;
    oracle.train(sourcesOf(*corpus_), authorLabelsOf(*corpus_),
                 config_.model);
    labels_ = oracle.predictAll(sourcesOf(*transformed_));
    if (labels_ != experiment_->oracleLabels()) {
      throw std::runtime_error("split oracle labels differ from the "
                               "YearExperiment oracle");
    }
  }

  void run() override {
    result_ = experiment_->attribution(core::Approach::FeatureBased);
  }

  void runTraced() override {
    const std::size_t challengeCount = corpus_->challenges.size();
    const int chatgptClass = static_cast<int>(config_.authorCount);
    core::ChatGptSet set;
    {
      Span span("core.chatgpt_set");
      set = core::buildChatGptSet(*transformed_, labels_,
                                  core::Approach::FeatureBased,
                                  config_.chatgptSetPerChallenge);
    }
    struct Row {
      const std::string* source;
      int label;
      int challenge;
      bool isChatGpt;
    };
    std::vector<Row> rows;
    {
      Span span("core.rows");
      rows.reserve(corpus_->samples.size() + set.sampleIndices.size());
      for (const corpus::CodeSample& sample : corpus_->samples) {
        rows.push_back(Row{&sample.source, sample.authorId,
                           sample.challengeIndex, false});
      }
      for (const std::size_t i : set.sampleIndices) {
        const llm::TransformedSample& sample = transformed_->samples[i];
        rows.push_back(
            Row{&sample.source, chatgptClass, sample.challengeIndex, true});
      }
    }

    core::YearExperiment::AttributionResult result;
    result.approach = core::Approach::FeatureBased;
    result.targetLabel = set.targetLabel;
    result.setSize = set.sampleIndices.size();
    {
      Span submit("runtime.parallel_map");
      const std::uint32_t parent = submit.id();
      result.folds = runtime::parallelMap<
          core::YearExperiment::AttributionFold>(
          challengeCount, [&](std::size_t held) {
            Span fold("core.fold", parent);
            std::vector<std::string> trainSources, testSources;
            std::vector<int> trainLabels, testLabels;
            std::vector<bool> testIsChatGpt;
            for (const Row& row : rows) {
              if (static_cast<std::size_t>(row.challenge) == held) {
                testSources.push_back(*row.source);
                testLabels.push_back(row.label);
                testIsChatGpt.push_back(row.isChatGpt);
              } else {
                trainSources.push_back(*row.source);
                trainLabels.push_back(row.label);
              }
            }
            SplitModel model;
            model.train(trainSources, trainLabels, config_.model);
            const std::vector<int> predicted = model.predictAll(testSources);

            core::YearExperiment::AttributionFold out;
            out.challenge = static_cast<int>(held);
            out.accuracy205 = ml::accuracy(testLabels, predicted);
            std::size_t chatgptTotal = 0, chatgptHits = 0;
            std::size_t targetTotal = 0, targetHits = 0;
            for (std::size_t i = 0; i < predicted.size(); ++i) {
              if (testIsChatGpt[i]) {
                ++chatgptTotal;
                if (predicted[i] == chatgptClass) ++chatgptHits;
              }
              if (set.targetLabel >= 0 && testLabels[i] == set.targetLabel) {
                ++targetTotal;
                if (predicted[i] == testLabels[i]) ++targetHits;
              }
            }
            out.chatgptTestCount = chatgptTotal;
            out.chatgptCorrect =
                chatgptTotal > 0 && 2 * chatgptHits > chatgptTotal;
            out.targetCorrect = targetTotal > 0 && 2 * targetHits > targetTotal;
            return out;
          });
    }
    Span span("core.aggregate");
    std::size_t chatgptHitFolds = 0, targetHitFolds = 0;
    double accuracySum = 0.0;
    for (const auto& fold : result.folds) {
      if (fold.chatgptCorrect) ++chatgptHitFolds;
      if (fold.targetCorrect) ++targetHitFolds;
      accuracySum += fold.accuracy205;
    }
    const double count = static_cast<double>(challengeCount);
    result.meanAccuracy = accuracySum / count;
    result.chatgptCorrectPercent =
        100.0 * static_cast<double>(chatgptHitFolds) / count;
    result.targetCorrectPercent =
        100.0 * static_cast<double>(targetHitFolds) / count;
    result_ = std::move(result);
  }

  Outcome collect() override {
    const auto& result = *result_;
    Outcome out;
    Digest digest;
    digest.add(static_cast<std::uint64_t>(result.targetLabel));
    digest.add(result.setSize);
    for (const auto& fold : result.folds) {
      digest.add(static_cast<std::uint64_t>(fold.challenge));
      digest.addDouble(fold.accuracy205);
      digest.add(fold.chatgptCorrect);
      digest.add(fold.targetCorrect);
      digest.add(fold.chatgptTestCount);
      out.table += "C" + std::to_string(fold.challenge + 1) + "," +
                   pct(fold.accuracy205) + "," + mark(fold.targetCorrect) +
                   "," + mark(fold.chatgptCorrect) + "\n";
    }
    digest.addDouble(result.meanAccuracy);
    digest.addDouble(result.chatgptCorrectPercent);
    digest.addDouble(result.targetCorrectPercent);
    out.table += "A," + pct(result.meanAccuracy) + "," +
                 util::formatDouble(result.targetCorrectPercent, 1) + "," +
                 util::formatDouble(result.chatgptCorrectPercent, 1) + "\n";
    out.digest = digest.value();
    out.units = result.folds.size();
    result_.reset();
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    return "attrib205 year " + std::to_string(seed_.year) + ", " +
           std::to_string(config_.authorCount + 1) + " classes, " +
           std::to_string(config_.model.forest.treeCount) +
           " trees per fold model";
  }

 private:
  SeedConfig seed_;
  core::ExperimentConfig config_;
  std::optional<core::YearExperiment> experiment_;
  // Traced state: the split pipeline's own corpus, transforms and labels.
  std::optional<corpus::YearDataset> corpus_;
  std::optional<llm::TransformedDataset> transformed_;
  std::vector<int> labels_;
  std::optional<core::YearExperiment::AttributionResult> result_;
};

// ------------------------------------------------------------------- binary
// Table X: three per-year ChatGPT-vs-human CVs plus the combined CV.

constexpr int kYears[] = {2017, 2018, 2019};
constexpr std::size_t kCombinedChallenges = 5;

struct BinaryRow {
  const std::string* source;
  int label;
  int challenge;
  int year;
};

class Binary final : public Workload {
 public:
  Binary(const SeedConfig& seed, bool smoke)
      : config_(experimentConfig(seed, smoke)) {
    modelConfig_ = config_.model;
    modelConfig_.selectTopK = config_.binarySelectTopK;
  }

  void setup() override {
    experiments_.reserve(3);  // binaryCombined holds pointers into it
    for (const int year : kYears) {
      experiments_.emplace_back(year, config_);
      (void)experiments_.back().transformedData();
    }
  }

  void setupTraced() override {
    corpora_.reserve(3);
    transformed_.reserve(3);
    for (std::size_t y = 0; y < 3; ++y) {
      corpora_.push_back(buildCorpus(kYears[y], config_.authorCount));
      transformed_.push_back(buildTransformed(corpora_.back(), config_.steps));
      if (sourcesHash(transformed_.back()) !=
          sourcesHash(experiments_[y].transformedData())) {
        throw std::runtime_error("split transforms differ from the "
                                 "YearExperiment transforms");
      }
    }
  }

  void run() override {
    Result result;
    for (core::YearExperiment& year : experiments_) {
      result.individual.push_back(core::binaryIndividual(year));
    }
    result.combined = core::binaryCombined(
        {&experiments_[0], &experiments_[1], &experiments_[2]});
    result_ = std::move(result);
  }

  void runTraced() override {
    Result result;
    for (std::size_t y = 0; y < 3; ++y) {
      const std::size_t challengeCount = corpora_[y].challenges.size();
      std::vector<BinaryRow> rows;
      {
        Span span("core.rows");
        rows = binaryRows(y, challengeCount);
      }
      const std::vector<FoldOutcome> outcomes = runFolds(rows, challengeCount);
      core::BinaryIndividualResult individual;
      individual.year = kYears[y];
      double sum = 0.0;
      for (const FoldOutcome& outcome : outcomes) {
        const double acc = accuracyWhere(outcome, 0);
        individual.foldAccuracies.push_back(acc);
        sum += acc;
      }
      individual.meanAccuracy = sum / static_cast<double>(challengeCount);
      result.individual.push_back(std::move(individual));
    }

    core::BinaryCombinedResult& combined = result.combined;
    combined.challengesPerYear = kCombinedChallenges;
    std::vector<BinaryRow> rows;
    {
      Span span("core.rows");
      for (std::size_t y = 0; y < 3; ++y) {
        combined.years.push_back(kYears[y]);
        const std::vector<BinaryRow> yearRows =
            binaryRows(y, kCombinedChallenges);
        rows.insert(rows.end(), yearRows.begin(), yearRows.end());
      }
    }
    const std::vector<FoldOutcome> outcomes =
        runFolds(rows, kCombinedChallenges);
    std::array<double, 4> sums{};
    for (const FoldOutcome& outcome : outcomes) {
      std::array<double, 4> row{};
      for (std::size_t y = 0; y < 3; ++y) {
        row[y] = accuracyWhere(outcome, combined.years[y]);
      }
      row[3] = accuracyWhere(outcome, 0);
      for (std::size_t c = 0; c < 4; ++c) sums[c] += row[c];
      combined.perChallenge.push_back(row);
    }
    for (std::size_t c = 0; c < 4; ++c) {
      combined.means[c] = sums[c] / static_cast<double>(kCombinedChallenges);
    }
    result_ = std::move(result);
  }

  Outcome collect() override {
    const Result& result = *result_;
    Outcome out;
    Digest digest;
    for (const core::BinaryIndividualResult& individual : result.individual) {
      digest.add(static_cast<std::uint64_t>(individual.year));
      for (const double acc : individual.foldAccuracies) {
        digest.addDouble(acc);
      }
      digest.addDouble(individual.meanAccuracy);
      out.units += individual.foldAccuracies.size();
    }
    const core::BinaryCombinedResult& combined = result.combined;
    for (const int year : combined.years) {
      digest.add(static_cast<std::uint64_t>(year));
    }
    for (const auto& row : combined.perChallenge) {
      for (const double v : row) digest.addDouble(v);
    }
    for (const double v : combined.means) digest.addDouble(v);
    out.units += combined.perChallenge.size();
    out.digest = digest.value();

    // Table X layout: C, Ind 2017..2019, Comb 2017..2019, All.
    const std::size_t folds = result.individual[0].foldAccuracies.size();
    for (std::size_t c = 0; c < folds; ++c) {
      out.table += "C" + std::to_string(c + 1);
      for (const auto& individual : result.individual) {
        out.table += "," + pct(individual.foldAccuracies[c]);
      }
      for (std::size_t k = 0; k < 4; ++k) {
        out.table += ",";
        if (c < combined.perChallenge.size()) {
          out.table += pct(combined.perChallenge[c][k]);
        }
      }
      out.table += "\n";
    }
    out.table += "A";
    for (const auto& individual : result.individual) {
      out.table += "," + pct(individual.meanAccuracy);
    }
    for (const double v : combined.means) out.table += "," + pct(v);
    out.table += "\n";
    result_.reset();
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    return "binary years 2017-2019, top " +
           std::to_string(modelConfig_.selectTopK) + " features, " +
           std::to_string(modelConfig_.forest.treeCount) +
           " trees per fold model";
  }

 private:
  struct Result {
    std::vector<core::BinaryIndividualResult> individual;
    core::BinaryCombinedResult combined;
  };
  struct FoldOutcome {
    std::vector<const BinaryRow*> testRows;
    std::vector<int> predicted;
  };

  /// Every transformed sample is "ChatGPT"; human samples are added per
  /// challenge until that challenge's ChatGPT count is matched.
  std::vector<BinaryRow> binaryRows(std::size_t y,
                                    std::size_t challengeLimit) const {
    const corpus::YearDataset& data = corpora_[y];
    std::vector<BinaryRow> rows;
    std::vector<std::size_t> chatgpt(data.challenges.size(), 0);
    for (const llm::TransformedSample& sample : transformed_[y].samples) {
      const auto c = static_cast<std::size_t>(sample.challengeIndex);
      if (c >= challengeLimit) continue;
      rows.push_back(BinaryRow{&sample.source, core::kChatGptClass,
                               sample.challengeIndex, kYears[y]});
      ++chatgpt[c];
    }
    std::vector<std::size_t> human(data.challenges.size(), 0);
    for (const corpus::CodeSample& sample : data.samples) {
      const auto c = static_cast<std::size_t>(sample.challengeIndex);
      if (c >= challengeLimit || human[c] >= chatgpt[c]) continue;
      rows.push_back(BinaryRow{&sample.source, core::kHumanClass,
                               sample.challengeIndex, kYears[y]});
      ++human[c];
    }
    return rows;
  }

  std::vector<FoldOutcome> runFolds(const std::vector<BinaryRow>& rows,
                                    std::size_t challengeCount) const {
    std::vector<FoldOutcome> outcomes;
    for (std::size_t held = 0; held < challengeCount; ++held) {
      Span fold("core.fold");
      FoldOutcome outcome;
      std::vector<std::string> trainSources, testSources;
      std::vector<int> trainLabels;
      for (const BinaryRow& row : rows) {
        if (static_cast<std::size_t>(row.challenge) == held) {
          outcome.testRows.push_back(&row);
          testSources.push_back(*row.source);
        } else {
          trainSources.push_back(*row.source);
          trainLabels.push_back(row.label);
        }
      }
      SplitModel model;
      model.train(trainSources, trainLabels, modelConfig_);
      outcome.predicted = model.predictAll(testSources);
      outcomes.push_back(std::move(outcome));
    }
    return outcomes;
  }

  /// Fold accuracy over the test rows of `year` (0 = all rows).
  static double accuracyWhere(const FoldOutcome& outcome, int year) {
    std::size_t total = 0, hits = 0;
    for (std::size_t i = 0; i < outcome.testRows.size(); ++i) {
      const BinaryRow& row = *outcome.testRows[i];
      if (year != 0 && row.year != year) continue;
      ++total;
      if (outcome.predicted[i] == row.label) ++hits;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  core::ExperimentConfig config_;
  core::ModelConfig modelConfig_;
  std::vector<core::YearExperiment> experiments_;
  std::vector<corpus::YearDataset> corpora_;
  std::vector<llm::TransformedDataset> transformed_;
  std::optional<Result> result_;
};

// ------------------------------------------------------------- label_chains
// One year's NCT and CT chains at many steps, labelled by a pre-trained
// oracle: the transform + parse + extract path with no forest fit.

class LabelChains final : public Workload {
 public:
  LabelChains(const SeedConfig& seed, bool smoke)
      : seed_(seed), config_(experimentConfig(seed, smoke)) {
    steps_ = smoke ? 20 : 2000;
  }

  void setup() override {
    corpus_ = corpus::buildYearDataset(seed_.year, config_.authorCount);
    oracle_.emplace(config_.model);
    oracle_->train(sourcesOf(*corpus_), authorLabelsOf(*corpus_));
  }

  void setupTraced() override {
    tracedCorpus_ = buildCorpus(seed_.year, config_.authorCount);
    split_.emplace();
    split_->train(sourcesOf(*tracedCorpus_), authorLabelsOf(*tracedCorpus_),
                  config_.model);
  }

  /// Users pay cold extraction once per process, so every iteration
  /// starts from an empty analysis cache.
  void beforeIteration() override { features::clearAnalysisCache(); }

  void run() override {
    llm::BuildOptions options;
    options.steps = steps_;
    transformed_ = llm::buildTransformedDataset(*corpus_, options);
    labels_ = oracle_->predictAll(sourcesOf(*transformed_));
  }

  void runTraced() override {
    transformed_ = buildTransformed(*tracedCorpus_, steps_);
    std::vector<std::string> sources;
    {
      Span span("core.sources");
      sources = sourcesOf(*transformed_);
    }
    labels_ = split_->predictAll(sources);
  }

  Outcome collect() override {
    Outcome out;
    Digest digest;
    digest.add(sourcesHash(*transformed_));
    for (const int label : labels_) {
      digest.add(static_cast<std::uint64_t>(label));
    }
    out.digest = digest.value();
    out.units = labels_.size();
    transformed_.reset();
    labels_.clear();
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    return "label_chains year " + std::to_string(seed_.year) + ", " +
           std::to_string(steps_) + " steps per setting";
  }

 private:
  SeedConfig seed_;
  core::ExperimentConfig config_;
  std::size_t steps_;
  std::optional<corpus::YearDataset> corpus_;
  std::optional<core::AttributionModel> oracle_;
  std::optional<corpus::YearDataset> tracedCorpus_;
  std::optional<SplitModel> split_;
  std::optional<llm::TransformedDataset> transformed_;
  std::vector<int> labels_;
};

// ------------------------------------------------------------- scale_stream
// Out-of-core path: buildYearMatrix into a fresh directory, a fit on a
// train-author view of the mmap matrix, streaming predictAll under a
// residency budget.

class ScaleStream final : public Workload {
 public:
  ScaleStream(const SeedConfig& seed, bool smoke, std::string scratchDir)
      : seed_(seed), scratchDir_(std::move(scratchDir)) {
    if (smoke) {
      authors_ = 64;
      shardSize_ = 16;
      trainAuthors_ = 16;
      trees_ = 4;
    }
    forestSeed_ = util::combine64(util::hash64("macro-scale-forest"),
                                  seed.forestSeed);
  }

  void setup() override {
    const std::vector<const corpus::Challenge*> challenges =
        corpus::challengesForYear(seed_.year);
    std::vector<std::string> sources;
    {
      Span span("corpus.build");
      const std::vector<corpus::Author> cohort = corpus::makeAuthorPopulation(
          seed_.year, std::min(authors_, kFitAuthors));
      for (const corpus::Author& author : cohort) {
        for (std::size_t c = 0; c < challenges.size(); ++c) {
          sources.push_back(corpus::renderSolution(
              author, *challenges[c], seed_.year, static_cast<int>(c)));
        }
      }
      span.setItems(sources.size());
    }
    Span span("features.fit");
    extractor_ = features::FeatureExtractor();
    extractor_.fit(sources);
    challengeCount_ = challenges.size();
  }

  void setupTraced() override { setup(); }

  /// A fresh directory every iteration: buildYearMatrix returns early on
  /// a finished matrix, which would leave nothing to time.
  void beforeIteration() override {
    outDir_ = scratchDir_ + "/scale-" + std::to_string(iteration_++);
    std::filesystem::remove_all(outDir_);
  }

  void afterIteration() override {
    file_.reset();
    std::filesystem::remove_all(outDir_);
  }

  void run() override {
    corpus::ScaleConfig config;
    config.year = seed_.year;
    config.authorCount = authors_;
    config.outDir = outDir_;
    config.shardSize = shardSize_;
    corpus::ScaleBuildResult build;
    {
      Span span("corpus.matrix");
      util::Result<corpus::ScaleBuildResult> built =
          corpus::buildYearMatrix(extractor_, config);
      if (!built.ok()) {
        throw std::runtime_error("buildYearMatrix: " +
                                 built.status().toString());
      }
      build = built.value();
      span.setItems(build.rows);
    }
    if (build.freshShards != build.shardCount || build.reusedFinal) {
      throw std::runtime_error("buildYearMatrix reused earlier output");
    }
    {
      Span span("ml.matrix_open");
      util::Result<ml::MatrixFile> opened = ml::MatrixFile::open(
          build.matrixPath,
          corpus::yearMatrixMetaHash(extractor_, seed_.year, authors_));
      if (!opened.ok()) {
        throw std::runtime_error("MatrixFile::open: " +
                                 opened.status().toString());
      }
      file_.emplace(std::move(opened.value()));
      file_->setResidencyBudget(kBudgetBytes);
    }
    const ml::Dataset full = ml::Dataset::fromMatrix(*file_);
    std::vector<std::size_t> trainIdx(trainAuthors_ * challengeCount_);
    for (std::size_t i = 0; i < trainIdx.size(); ++i) trainIdx[i] = i;
    const ml::Dataset trainView = full.subsetView(trainIdx);

    ml::ForestConfig forestConfig;
    forestConfig.treeCount = trees_;
    forestConfig.seed = forestSeed_;
    ml::RandomForest forest(forestConfig);
    {
      Span span("ml.fit");
      forest.fit(trainView);
      span.setItems(forest.treeCount());
    }
    Span span("ml.stream_predict");
    predictions_ = forest.predictAll(full);
    span.setItems(predictions_.size());
  }

  void runTraced() override { run(); }

  Outcome collect() override {
    Outcome out;
    Digest digest;
    digest.add(ml::matrixContentHash(*file_));
    for (const int vote : predictions_) {
      digest.add(static_cast<std::uint64_t>(vote));
    }
    out.digest = digest.value();
    out.units = predictions_.size();
    predictions_.clear();
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    return "scale_stream year " + std::to_string(seed_.year) + ", " +
           std::to_string(authors_) + " authors x " +
           std::to_string(challengeCount_) + " challenges x " +
           std::to_string(extractor_.dimension()) + " columns in shards of " +
           std::to_string(shardSize_) + ", " + std::to_string(trees_) +
           " trees on " + std::to_string(trainAuthors_) +
           " train authors, residency budget " +
           std::to_string(kBudgetBytes >> 20) + " MiB";
  }

 private:
  static constexpr std::size_t kFitAuthors = 128;  // vocabulary cohort
  static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;

  SeedConfig seed_;
  std::string scratchDir_;
  std::size_t authors_ = 4000;
  std::size_t shardSize_ = 512;
  std::size_t trainAuthors_ = 256;
  std::size_t trees_ = 16;
  std::uint64_t forestSeed_ = 0;
  std::size_t challengeCount_ = 0;
  std::size_t iteration_ = 0;
  std::string outDir_;
  features::FeatureExtractor extractor_;
  std::optional<ml::MatrixFile> file_;
  std::vector<int> predictions_;
};

}  // namespace

SeedConfig seedConfig(long long seed) {
  SeedConfig out;
  out.seed = seed;
  out.seedClass = static_cast<int>(((seed % 6) + 6) % 6);
  out.forestSeed = 17 + 1000 * static_cast<std::uint64_t>(out.seedClass);
  return out;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const SeedConfig& seed, bool smoke,
                                       const std::string& scratchDir) {
  if (name == "attrib205") return std::make_unique<Attrib205>(seed, smoke);
  if (name == "binary") return std::make_unique<Binary>(seed, smoke);
  if (name == "label_chains") {
    return std::make_unique<LabelChains>(seed, smoke);
  }
  if (name == "scale_stream") {
    return std::make_unique<ScaleStream>(seed, smoke, scratchDir);
  }
  return nullptr;
}

}  // namespace perfbench
