// Random forest (bagged CART trees, majority vote) — the classifier of
// Caliskan-Islam et al. that every experiment in the paper runs on.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"

namespace sca::ml {

struct ForestConfig {
  std::size_t treeCount = 120;
  TreeConfig tree;
  std::uint64_t seed = 17;
  /// Cap on concurrent fit/predict tasks in the shared runtime pool;
  /// 0 = no cap (pool size, i.e. SCA_THREADS or hardware concurrency).
  std::size_t threads = 0;
  /// Bootstrap sample size as a fraction of the training set.
  double bootstrapFraction = 1.0;
};

class RandomForest {
 public:
  explicit RandomForest(ForestConfig config = {});

  /// fitBatch() of this forest alone; `data` is left as it is.
  void fit(const Dataset& data);

  /// Fits forests[i] on data[i], for every i, in one parallel loop over
  /// every (forest, tree) pair, so small forests share the pool instead of
  /// each waiting for its own stragglers. Every tree keeps the seed its
  /// forest derives for it, so each forest is the one fit() grows, bit for
  /// bit. A forest's feature columns are built by the first of its trees
  /// to start; data[i].x is released as soon as they exist, and they are
  /// released when the forest's last tree is grown. The loop honours the
  /// tightest `threads` cap among the forests.
  static void fitBatch(std::span<RandomForest* const> forests,
                       std::span<Dataset> data);

  [[nodiscard]] int predict(std::span<const double> features) const;
  [[nodiscard]] int predict(const std::vector<double>& features) const {
    return predict(std::span<const double>(features));
  }
  [[nodiscard]] std::vector<int> predictAll(
      const std::vector<std::vector<double>>& rows) const;

  /// Streaming prediction over any Dataset storage mode. Matrix-backed
  /// datasets are walked in sequential row blocks (previous block's pages
  /// dropped as the cursor advances), so the working set stays bounded for
  /// corpora larger than memory. Output is byte-identical to the resident
  /// path at any thread count: each row's vote is a pure function of that
  /// row and the trained trees.
  [[nodiscard]] std::vector<int> predictAll(const Dataset& data) const;

  /// Per-class vote fractions for one sample (sums to 1).
  [[nodiscard]] std::vector<double> predictProba(
      std::span<const double> features) const;
  [[nodiscard]] std::vector<double> predictProba(
      const std::vector<double>& features) const {
    return predictProba(std::span<const double>(features));
  }

  [[nodiscard]] const ForestConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t treeCount() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] int classCount() const noexcept { return classCount_; }
  [[nodiscard]] bool trained() const noexcept { return !trees_.empty(); }

  /// Text (de)serialization of a trained forest (trees + class count; the
  /// training hyperparameters are not needed for prediction).
  void save(std::ostream& os) const;
  static RandomForest load(std::istream& is);

  /// Split-frequency feature importance: how often each feature is used as
  /// a split across the forest, L1-normalized. Cheap, and on stylometric
  /// vectors it tracks impurity-based importance closely.
  [[nodiscard]] std::vector<double> featureImportances(
      std::size_t dimension) const;

 private:
  /// The shared fit: `columnsBuilt(i)` runs once forest i's feature
  /// columns exist, while no tree of it reads data[i]'s rows.
  static void fitForests(std::span<RandomForest* const> forests,
                         std::span<const Dataset* const> data,
                         const std::function<void(std::size_t)>& columnsBuilt);

  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  int classCount_ = 0;
};

}  // namespace sca::ml
