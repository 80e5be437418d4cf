// Information-gain feature selection (as in Caliskan-Islam et al., who
// prune their ~120k-dimensional feature space with WEKA's InfoGain filter
// before training the random forest).
//
// Each feature is scored by the information gain of a binary split at its
// training mean; the top-k features are kept. The score needs only two
// passes over the rows, one at a time (column sums, then per-class counts
// at or below each mean), so rows can be streamed from a FeatureTable
// without a row-major matrix of the fold.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace sca::features {

/// Receives one row at a time; the span is valid only during the call.
using RowVisitor = std::function<void(std::span<const double>)>;
/// Hands every row, in order, to the visitor; may be called more than once.
using RowScan = std::function<void(const RowVisitor&)>;

class FeatureSelector {
 public:
  /// Scores features on (x, y) and keeps the `k` highest-gain columns.
  /// If k >= dimension or k == 0, selection is the identity. Throws
  /// std::invalid_argument on a size mismatch or a negative label.
  /// fitStreamed() over the rows of `x`.
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<int>& y, std::size_t k);

  /// fit() over rows that `scan` streams: row i (of `dims` values) has
  /// label y[i]. Each scan must hand exactly y.size() rows, in the same
  /// order; there are two scans unless selection is the identity, and
  /// none then. Same gains and order as fit() on those rows, bit for bit.
  /// Throws std::invalid_argument on a negative label or a short or long
  /// scan.
  void fitStreamed(const RowScan& scan, std::size_t dims,
                   const std::vector<int>& y, std::size_t k);

  /// Rebuilds a selector from explicit column indices (deserialization);
  /// an empty list is the identity. Gains are not restored.
  static FeatureSelector fromIndices(std::vector<std::size_t> indices);

  /// Projects one vector onto the selected columns.
  [[nodiscard]] std::vector<double> apply(std::span<const double> vec) const;
  [[nodiscard]] std::vector<double> apply(
      const std::vector<double>& vec) const {
    return apply(std::span<const double>(vec));
  }

  [[nodiscard]] std::vector<std::vector<double>> applyAll(
      const std::vector<std::vector<double>>& x) const;

  /// Selected column indices in descending gain order.
  [[nodiscard]] const std::vector<std::size_t>& selected() const noexcept {
    return selected_;
  }

  /// Gain score of every original column (after fit).
  [[nodiscard]] const std::vector<double>& gains() const noexcept {
    return gains_;
  }

  [[nodiscard]] bool identity() const noexcept { return selected_.empty(); }

 private:
  std::vector<std::size_t> selected_;  // empty => identity
  std::vector<double> gains_;
};

/// Shannon entropy (nats) of a label vector. Throws std::invalid_argument
/// on a negative label.
[[nodiscard]] double labelEntropy(const std::vector<int>& y);

}  // namespace sca::features
