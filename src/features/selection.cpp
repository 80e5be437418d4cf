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
  fitStreamed(
      [&](const RowVisitor& visit) {
        for (const std::vector<double>& row : x) visit(row);
      },
      x.empty() ? 0 : x[0].size(), y, k);
}

void FeatureSelector::fitStreamed(const RowScan& scan, std::size_t dims,
                                  const std::vector<int>& y, std::size_t k) {
  selected_.clear();
  gains_.clear();
  const std::size_t classes = classCount(y);
  if (y.empty() || k == 0 || k >= dims) return;  // identity

  const std::size_t rows = y.size();
  std::vector<std::size_t> classTotal(classes, 0);
  for (const int label : y) ++classTotal[static_cast<std::size_t>(label)];
  // Runs one scan, checking it hands exactly one row per label.
  const auto pass = [&](const std::function<void(std::size_t,
                                                 std::span<const double>)>&
                            visit) {
    std::size_t seen = 0;
    scan([&](std::span<const double> row) {
      if (seen == rows || row.size() != dims) {
        throw std::invalid_argument(
            "FeatureSelector::fitStreamed: scan does not match the labels");
      }
      visit(seen++, row);
    });
    if (seen != rows) {
      throw std::invalid_argument(
          "FeatureSelector::fitStreamed: scan does not match the labels");
    }
  };

  // Each column's mean, summed in row order.
  std::vector<double> mean(dims, 0.0);
  pass([&](std::size_t, std::span<const double> row) {
    for (std::size_t d = 0; d < dims; ++d) mean[d] += row[d];
  });
  const double total = static_cast<double>(rows);
  for (double& m : mean) m /= total;

  // Per-class counts at or below each mean, class-major so that one row's
  // updates are contiguous.
  std::vector<std::size_t> below(classes * dims, 0);
  pass([&](std::size_t i, std::span<const double> row) {
    std::size_t* counts =
        below.data() + static_cast<std::size_t>(y[i]) * dims;
    for (std::size_t d = 0; d < dims; ++d) {
      if (row[d] <= mean[d]) ++counts[d];
    }
  });

  const double baseEntropy = entropyOfCounts(classTotal, rows);
  gains_.resize(dims, 0.0);
  std::vector<std::size_t> belowOf(classes), aboveOf(classes);
  for (std::size_t d = 0; d < dims; ++d) {
    std::size_t belowCount = 0;
    for (std::size_t c = 0; c < classes; ++c) {
      belowOf[c] = below[c * dims + d];
      aboveOf[c] = classTotal[c] - belowOf[c];
      belowCount += belowOf[c];
    }
    const std::size_t aboveCount = rows - belowCount;
    const double conditional =
        (static_cast<double>(belowCount) / total) *
            entropyOfCounts(belowOf, belowCount) +
        (static_cast<double>(aboveCount) / total) *
            entropyOfCounts(aboveOf, aboveCount);
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
    std::span<const double> vec) const {
  if (identity()) return {vec.begin(), vec.end()};
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
