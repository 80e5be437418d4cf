#include "core/folds.hpp"

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

std::vector<int> predictFold(const features::FeatureTable& table,
                             const std::vector<int>& labels,
                             const FoldRows& fold, const ModelConfig& config) {
  std::vector<int> trainLabels;
  trainLabels.reserve(fold.train.size());
  for (const std::size_t row : fold.train) trainLabels.push_back(labels[row]);
  AttributionModel model(config);
  model.train(table, fold.train, trainLabels);
  return model.predictRows(table, fold.test);
}

}  // namespace sca::core
