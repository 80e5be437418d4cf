// CART decision tree with Gini impurity.
//
// Two split modes: exact (sorted sweep over midpoints, as in classic CART)
// and randomized thresholds (Extra-Trees style), which with bagging on top
// is statistically indistinguishable for these experiments. The forest
// defaults to the randomized mode; bench/ablation_forest compares both in
// accuracy and fit time. Either mode examines each sampled feature of a
// node in one pass; DESIGN.md §2.9 explains why the trees are the same
// bit for bit as a scan per threshold.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace sca::ml {

struct TreeConfig {
  std::size_t maxDepth = 40;
  std::size_t minSamplesLeaf = 1;
  std::size_t minSamplesSplit = 2;
  /// Features examined per split; 0 = floor(sqrt(dimension)).
  std::size_t featuresPerSplit = 0;
  /// Candidate thresholds per examined feature; 0 = exact sorted sweep.
  std::size_t thresholdsPerFeature = 8;
};

/// Feature-major copy of a dataset's rows: column f holds feature f of
/// every row, contiguously, so a node's scan of one feature reads one
/// array. A forest builds one per fit and its trees share it read-only.
class FeatureColumns {
 public:
  /// Reads each row once through Dataset::row, so any storage mode works.
  explicit FeatureColumns(const Dataset& data);

  [[nodiscard]] std::size_t dimension() const noexcept { return dims_; }
  [[nodiscard]] const double* column(std::size_t feature) const noexcept {
    return values_.data() + feature * rows_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  std::vector<double> values_;  // dims_ x rows_
};

class DecisionTree {
 public:
  /// Fits on the rows of `columns` listed in `sampleIndices` (with
  /// repetitions — the forest passes sorted bootstrap samples); `labels[i]`
  /// is row i's class and `classCount` fixes the label range.
  void fit(const FeatureColumns& columns, const std::vector<int>& labels,
           const std::vector<std::size_t>& sampleIndices, int classCount,
           const TreeConfig& config, util::Rng rng);

  [[nodiscard]] int predict(std::span<const double> features) const;
  [[nodiscard]] int predict(const std::vector<double>& features) const {
    return predict(std::span<const double>(features));
  }

  [[nodiscard]] std::size_t nodeCount() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t leafCount() const noexcept;
  [[nodiscard]] std::size_t depth() const noexcept;

  /// Text (de)serialization: one "tree" header line plus one line per node.
  /// Round-trips exactly (thresholds use max-precision formatting).
  void save(std::ostream& os) const;
  static DecisionTree load(std::istream& is);

  /// Adds this tree's split counts per feature into `counts` (interior
  /// nodes only). Used for split-frequency feature importance.
  void accumulateSplitCounts(std::vector<double>& counts) const;

 private:
  struct Node {
    int featureIndex = -1;   // -1 => leaf
    double threshold = 0.0;  // go left when value <= threshold
    int left = -1;
    int right = -1;
    int label = -1;          // leaf prediction
    int depth = 0;
  };

  std::vector<Node> nodes_;
};

}  // namespace sca::ml
