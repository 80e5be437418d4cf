#include "core/folds.hpp"

#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"

namespace sca::core {

features::FeatureTable extractTable(
    const std::vector<const std::string*>& sources) {
  runtime::PhaseTimer timer("feature_extract");
  return features::FeatureTable(sources);
}

FoldRows holdOut(const std::vector<int>& groups, int held) {
  FoldRows fold;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    (groups[i] == held ? fold.test : fold.train).push_back(i);
  }
  return fold;
}

std::vector<std::vector<int>> predictFolds(const features::FeatureTable& table,
                                           const std::vector<int>& labels,
                                           std::span<const FoldRows> folds,
                                           const ModelConfig& config) {
  std::vector<std::vector<int>> trainLabels(folds.size());
  std::vector<AttributionModel> models(folds.size(), AttributionModel(config));
  std::vector<AttributionModel*> trainees;
  std::vector<AttributionModel::TrainingRows> jobs;
  trainees.reserve(folds.size());
  jobs.reserve(folds.size());
  for (std::size_t f = 0; f < folds.size(); ++f) {
    trainLabels[f].reserve(folds[f].train.size());
    for (const std::size_t row : folds[f].train) {
      trainLabels[f].push_back(labels[row]);
    }
    trainees.push_back(&models[f]);
    jobs.push_back({folds[f].train, trainLabels[f]});
  }
  AttributionModel::trainAll(trainees, table, jobs);

  runtime::PhaseTimer timer("predict");
  std::vector<std::vector<int>> predicted(folds.size());
  const auto predict = [&](std::size_t f) {
    predicted[f] = models[f].predictRows(table, folds[f].test);
    models[f] = AttributionModel();
  };
  // As in trainAll: a lone fold opens no parallel region of its own, so
  // predictFold keeps the regions (and stable metrics) it had.
  if (folds.size() == 1) {
    predict(0);
  } else {
    runtime::parallelFor(0, folds.size(), predict);
  }
  return predicted;
}

std::vector<int> predictFold(const features::FeatureTable& table,
                             const std::vector<int>& labels,
                             const FoldRows& fold, const ModelConfig& config) {
  return std::move(predictFolds(table, labels, {&fold, 1}, config)[0]);
}

}  // namespace sca::core
