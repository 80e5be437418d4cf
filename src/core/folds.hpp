// Leave-one-challenge-out folds over one shared feature table. Every CV
// loop of the experiments (the 204-author baseline, Tables VIII/IX and
// Table X) extracts its rows once into a features::FeatureTable and runs
// each fold as ascending row indices into it, with no per-fold copy of a
// source (DESIGN.md §2.10).
#pragma once

#include <string>
#include <vector>

#include "core/attribution_model.hpp"
#include "features/table.hpp"

namespace sca::core {

struct FoldRows {
  std::vector<std::size_t> train;  // ascending
  std::vector<std::size_t> test;   // ascending
};

/// The FeatureTable of one CV loop's sources, timed as "feature_extract".
[[nodiscard]] features::FeatureTable extractTable(
    const std::vector<const std::string*>& sources);

/// Rows whose group is `held` are the fold's test rows; the rest train.
[[nodiscard]] FoldRows holdOut(const std::vector<int>& groups, int held);

/// Fits a model on the fold's training rows of `table` (`labels` holds
/// the class of every table row) and returns its predictions for the
/// fold's test rows, in order. Bit-identical to training an
/// AttributionModel on copies of those rows' sources and predicting the
/// held-out sources.
[[nodiscard]] std::vector<int> predictFold(const features::FeatureTable& table,
                                           const std::vector<int>& labels,
                                           const FoldRows& fold,
                                           const ModelConfig& config);

}  // namespace sca::core
