#include "features/selection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sca::features {
namespace {

/// Number of classes of a label vector (max label + 1); throws on a
/// negative label, which no count array can index.
std::size_t classCount(const std::vector<int>& y) {
  int maxLabel = -1;
  for (const int label : y) {
    if (label < 0) {
      throw std::invalid_argument("FeatureSelector: negative label");
    }
    maxLabel = std::max(maxLabel, label);
  }
  return static_cast<std::size_t>(maxLabel + 1);
}

/// Entropy of per-label counts, summed in ascending label order (the order
/// the std::map these arrays replaced iterated in), zero counts skipped.
double entropyOfCounts(const std::vector<std::size_t>& counts,
                       std::size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const std::size_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

double labelEntropy(const std::vector<int>& y) {
  std::vector<std::size_t> counts(classCount(y), 0);
  for (const int label : y) ++counts[static_cast<std::size_t>(label)];
  return entropyOfCounts(counts, y.size());
}

void FeatureSelector::fit(const std::vector<std::vector<double>>& x,
                          const std::vector<int>& y, std::size_t k) {
  selected_.clear();
  gains_.clear();
  if (x.size() != y.size()) {
    throw std::invalid_argument("FeatureSelector::fit: size mismatch");
  }
  const std::size_t classes = classCount(y);
  if (x.empty()) return;
  const std::size_t dims = x[0].size();
  if (k == 0 || k >= dims) return;  // identity

  const double baseEntropy = labelEntropy(y);
  const double total = static_cast<double>(x.size());
  gains_.resize(dims, 0.0);
  std::vector<double> column(x.size());
  std::vector<std::size_t> below(classes), above(classes);
  for (std::size_t d = 0; d < dims; ++d) {
    // One contiguous gather per column; the mean is summed in training-row
    // order, as before.
    for (std::size_t i = 0; i < x.size(); ++i) column[i] = x[i][d];
    double mean = 0.0;
    for (const double v : column) mean += v;
    mean /= total;

    std::fill(below.begin(), below.end(), 0);
    std::fill(above.begin(), above.end(), 0);
    std::size_t belowCount = 0;
    for (std::size_t i = 0; i < column.size(); ++i) {
      const auto label = static_cast<std::size_t>(y[i]);
      if (column[i] <= mean) {
        ++below[label];
        ++belowCount;
      } else {
        ++above[label];
      }
    }
    const std::size_t aboveCount = x.size() - belowCount;
    const double conditional =
        (static_cast<double>(belowCount) / total) *
            entropyOfCounts(below, belowCount) +
        (static_cast<double>(aboveCount) / total) *
            entropyOfCounts(above, aboveCount);
    gains_[d] = baseEntropy - conditional;
  }

  std::vector<std::size_t> order(dims);
  for (std::size_t d = 0; d < dims; ++d) order[d] = d;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (gains_[a] != gains_[b]) return gains_[a] > gains_[b];
    return a < b;
  });
  order.resize(k);
  selected_ = std::move(order);
}

FeatureSelector FeatureSelector::fromIndices(
    std::vector<std::size_t> indices) {
  FeatureSelector selector;
  selector.selected_ = std::move(indices);
  return selector;
}

std::vector<double> FeatureSelector::apply(
    const std::vector<double>& vec) const {
  if (identity()) return vec;
  std::vector<double> out;
  out.reserve(selected_.size());
  for (const std::size_t idx : selected_) out.push_back(vec[idx]);
  return out;
}

std::vector<std::vector<double>> FeatureSelector::applyAll(
    const std::vector<std::vector<double>>& x) const {
  std::vector<std::vector<double>> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(apply(row));
  return out;
}

}  // namespace sca::features
