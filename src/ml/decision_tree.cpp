#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace sca::ml {
namespace {

/// Gini impurity from the counts of the classes present in a node, in
/// ascending class id. A class with no samples adds exactly +0.0 to the sum
/// of squares, so this is the same double as the sum over every class.
double gini(const std::size_t* counts, std::size_t classes,
            std::size_t total) {
  if (total == 0) return 0.0;
  double sumSquares = 0.0;
  for (std::size_t k = 0; k < classes; ++k) {
    const double p =
        static_cast<double>(counts[k]) / static_cast<double>(total);
    sumSquares += p * p;
  }
  return 1.0 - sumSquares;
}

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double impurity = std::numeric_limits<double>::infinity();
};

/// One distinct row of a node with its multiplicity in the bootstrap.
struct Sample {
  std::size_t row;
  std::size_t weight;
};

/// Per-tree working memory, sized once per fit. Per-row buffers are
/// indexed by a node's k-th Sample. Labels inside a node are slots into
/// the node's present classes (ascending class id), so count vectors are
/// K = |present| wide rather than classCount wide.
struct Workspace {
  std::vector<Sample> spill;          // partition buffer for right rows
  std::vector<std::size_t> slots;     // node labels as present-class slots
  std::vector<double> values;         // one feature over the node
  std::vector<int> slotOfClass;       // class id -> slot, -1 when absent
  std::vector<int> present;           // present class ids, ascending
  std::vector<std::size_t> counts;    // node class counts per slot
  std::vector<std::size_t> leftCounts;
  std::vector<std::size_t> rightCounts;
  // Randomized mode: the T drawn thresholds, the same sorted, the sort
  // permutation, the impurity each drawn threshold scores, and per-bucket
  // class counts, where bucket j holds the rows whose first sorted
  // threshold >= value is the j-th (bucket T: above every threshold).
  std::vector<double> thresholds;
  std::vector<double> ascending;
  std::vector<std::size_t> order;
  std::vector<double> impurity;
  std::vector<std::size_t> bucketCounts;  // (T+1) x K
  // Exact mode: (value, slot) pairs sorted by value, one per bootstrap
  // draw.
  std::vector<std::pair<double, std::size_t>> sorted;

  Workspace(std::size_t samples, std::size_t classCount,
          std::size_t thresholdCount)
      : spill(samples),
        slots(samples),
        values(samples),
        slotOfClass(classCount, -1),
        counts(classCount),
        leftCounts(classCount),
        rightCounts(classCount),
        thresholds(thresholdCount),
        ascending(thresholdCount),
        order(thresholdCount),
        impurity(thresholdCount),
        bucketCounts((thresholdCount + 1) * classCount) {
    present.reserve(classCount);
    if (thresholdCount == 0) sorted.resize(samples);
  }
};

}  // namespace

FeatureColumns::FeatureColumns(const Dataset& data)
    : rows_(data.size()),
      dims_(data.dimension()),
      values_(rows_ * dims_) {
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::span<const double> row = data.row(i);
    for (std::size_t f = 0; f < dims_; ++f) values_[f * rows_ + i] = row[f];
  }
}

void DecisionTree::fit(const FeatureColumns& columns,
                       const std::vector<int>& labels,
                       const std::vector<std::size_t>& sampleIndices,
                       int classCount, const TreeConfig& config,
                       util::Rng rng) {
  nodes_.clear();
  if (sampleIndices.empty() || classCount <= 0) {
    nodes_.push_back(Node{-1, 0.0, -1, -1, 0, 0});
    return;
  }
  const std::size_t dims = columns.dimension();
  const std::size_t mtry =
      config.featuresPerSplit > 0
          ? std::min(config.featuresPerSplit, dims)
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(std::sqrt(
                       static_cast<double>(dims))));
  const std::size_t thresholdCount = config.thresholdsPerFeature;

  // One sample buffer for the whole tree: a node owns the range
  // [begin, end), and a split stably partitions that range in place into
  // its children's ranges. Adjacent repeats of a row (the forest sorts its
  // bootstrap, so every repeat is adjacent) are one weighted entry: the
  // repeats carry the same value and label, fall on the same side of every
  // split and leave min/max unchanged, so counting them by weight gives
  // every count, bound and split the same numbers.
  std::vector<Sample> samples;
  samples.reserve(sampleIndices.size());
  for (const std::size_t row : sampleIndices) {
    if (!samples.empty() && samples.back().row == row) {
      ++samples.back().weight;
    } else {
      samples.push_back(Sample{row, 1});
    }
  }
  Workspace work(sampleIndices.size(), static_cast<std::size_t>(classCount),
                  thresholdCount);

  struct WorkItem {
    std::size_t begin;
    std::size_t end;
    int nodeIndex;
    int depth;
  };
  std::vector<WorkItem> stack;
  nodes_.push_back(Node{});
  stack.push_back(WorkItem{0, samples.size(), 0, 0});

  // A feature constant over a node is constant over all its descendants,
  // whose rows are a subset (min/max ignore NaN, so this holds with NaN
  // too). `constant` is that bit set for the node being split; `inherited`
  // holds one per stack entry, `words` 64-bit words each.
  const std::size_t words = (dims + 63) / 64;
  std::vector<std::uint64_t> constant(words);
  std::vector<std::uint64_t> inherited(words);  // the root knows none

  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    std::copy_n(inherited.begin() +
                    static_cast<std::ptrdiff_t>(stack.size() * words),
                words, constant.begin());
    Node& node = nodes_[static_cast<std::size_t>(item.nodeIndex)];
    node.depth = item.depth;
    const std::size_t m = item.end - item.begin;  // distinct rows
    const Sample* nodeSamples = samples.data() + item.begin;

    // Map the node's labels to slots of the present classes in ascending
    // class id, and count its rows with repeats (n).
    std::vector<int>& present = work.present;
    present.clear();
    std::size_t n = 0;
    for (std::size_t k = 0; k < m; ++k) {
      n += nodeSamples[k].weight;
      const int label = labels[nodeSamples[k].row];
      int& slot = work.slotOfClass[static_cast<std::size_t>(label)];
      if (slot < 0) {
        slot = 0;
        present.push_back(label);
      }
      work.slots[k] = static_cast<std::size_t>(label);
    }
    std::sort(present.begin(), present.end());
    const std::size_t K = present.size();
    for (std::size_t s = 0; s < K; ++s) {
      work.slotOfClass[static_cast<std::size_t>(present[s])] =
          static_cast<int>(s);
    }
    std::size_t* counts = work.counts.data();
    std::fill_n(counts, K, 0);
    for (std::size_t k = 0; k < m; ++k) {
      work.slots[k] = static_cast<std::size_t>(
          work.slotOfClass[work.slots[k]]);
      counts[work.slots[k]] += nodeSamples[k].weight;
    }
    for (const int label : present) {
      work.slotOfClass[static_cast<std::size_t>(label)] = -1;
    }
    const double nodeImpurity = gini(counts, K, n);

    // Majority over present classes; ties go to the lowest class id.
    const auto majorityLabel = [&] {
      std::size_t best = 0;
      for (std::size_t s = 1; s < K; ++s) {
        if (counts[s] > counts[best]) best = s;
      }
      return present[best];
    };

    const bool stop = nodeImpurity <= 0.0 || n < config.minSamplesSplit ||
                      static_cast<std::size_t>(item.depth) >= config.maxDepth;
    if (stop) {
      node.label = majorityLabel();
      continue;
    }

    // Impurity of a split with `leftCounts` (K slots, `leftTotal` rows) on
    // the left, or +inf when a side is below the minimum leaf size.
    std::size_t* leftCounts = work.leftCounts.data();
    std::size_t* rightCounts = work.rightCounts.data();
    const auto splitImpurity = [&](std::size_t leftTotal) {
      const std::size_t rightTotal = n - leftTotal;
      if (leftTotal < config.minSamplesLeaf ||
          rightTotal < config.minSamplesLeaf) {
        return std::numeric_limits<double>::infinity();
      }
      for (std::size_t s = 0; s < K; ++s) {
        rightCounts[s] = counts[s] - leftCounts[s];
      }
      const double total = static_cast<double>(n);
      return (static_cast<double>(leftTotal) / total) *
                 gini(leftCounts, K, leftTotal) +
             (static_cast<double>(rightTotal) / total) *
                 gini(rightCounts, K, rightTotal);
    };

    // Candidate features for this node. Ties keep the first feature and,
    // within a feature, the first-drawn (or lowest exact) threshold.
    const std::vector<std::size_t> features = rng.sampleIndices(dims, mtry);
    SplitCandidate best;
    double* values = work.values.data();

    for (const std::size_t f : features) {
      // Skipping a known-constant feature is the same `continue` as
      // finding it constant again: no RNG draw has happened yet.
      std::uint64_t& word = constant[f / 64];
      const std::uint64_t bit = std::uint64_t{1} << (f % 64);
      if ((word & bit) != 0) continue;
      const double* column = columns.column(f);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < m; ++k) {
        const double value = column[nodeSamples[k].row];
        values[k] = value;
        lo = std::min(lo, value);
        hi = std::max(hi, value);
      }
      if (!(hi > lo)) {  // constant feature in this node
        word |= bit;
        continue;
      }

      if (thresholdCount == 0) {
        // Exact mode: midpoints of adjacent distinct values, swept once
        // over the sorted column. The left side of a midpoint is exactly
        // {value <= mid}: for adjacent doubles 0.5*(a+b) can round up to
        // b, which then belongs on the left too.
        auto& sorted = work.sorted;
        for (std::size_t k = 0, at = 0; k < m; ++k) {
          for (std::size_t w = 0; w < nodeSamples[k].weight; ++w) {
            sorted[at++] = {values[k], work.slots[k]};
          }
        }
        std::sort(sorted.begin(),
                  sorted.begin() + static_cast<std::ptrdiff_t>(n));
        std::fill_n(leftCounts, K, 0);
        std::size_t leftTotal = 0;
        for (std::size_t k = 1; k < n; ++k) {
          if (!(sorted[k - 1].first < sorted[k].first)) continue;
          const double mid = 0.5 * (sorted[k - 1].first + sorted[k].first);
          while (leftTotal < n && sorted[leftTotal].first <= mid) {
            ++leftCounts[sorted[leftTotal].second];
            ++leftTotal;
          }
          const double weighted = splitImpurity(leftTotal);
          if (weighted < best.impurity) {
            best = {static_cast<int>(f), mid, weighted};
          }
        }
        continue;
      }

      // Randomized mode: draw every threshold first (the same RNG
      // sequence as drawing one per evaluation), bucket each row against
      // the sorted thresholds in one pass, sweep the buckets in ascending
      // order, then compare in draw order.
      double* thresholds = work.thresholds.data();
      for (std::size_t t = 0; t < thresholdCount; ++t) {
        thresholds[t] = rng.uniformReal(lo, hi);
      }
      auto& order = work.order;
      for (std::size_t t = 0; t < thresholdCount; ++t) order[t] = t;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return thresholds[a] < thresholds[b];
                });
      double* ascending = work.ascending.data();
      for (std::size_t j = 0; j < thresholdCount; ++j) {
        ascending[j] = thresholds[order[j]];
      }
      std::size_t* bucketCounts = work.bucketCounts.data();
      std::fill_n(bucketCounts, (thresholdCount + 1) * K, 0);
      for (std::size_t k = 0; k < m; ++k) {
        // Thresholds below the value form a prefix of the ascending list,
        // so their count is the index of the first threshold >= value.
        // A NaN value is <= none and lands above every threshold.
        const double value = values[k];
        std::size_t bucket = 0;
        for (std::size_t j = 0; j < thresholdCount; ++j) {
          bucket += !(value <= ascending[j]);
        }
        bucketCounts[bucket * K + work.slots[k]] += nodeSamples[k].weight;
      }
      std::fill_n(leftCounts, K, 0);
      std::size_t leftTotal = 0;
      for (std::size_t j = 0; j < thresholdCount; ++j) {
        const std::size_t* bucket = bucketCounts + j * K;
        std::size_t added = 0;
        for (std::size_t s = 0; s < K; ++s) {
          leftCounts[s] += bucket[s];
          added += bucket[s];
        }
        leftTotal += added;
        // An empty bucket leaves the left side as it was: the same inputs
        // to splitImpurity, so the previous threshold's double.
        work.impurity[order[j]] = j > 0 && added == 0
                                      ? work.impurity[order[j - 1]]
                                      : splitImpurity(leftTotal);
      }
      for (std::size_t t = 0; t < thresholdCount; ++t) {
        if (work.impurity[t] < best.impurity) {
          best = {static_cast<int>(f), thresholds[t], work.impurity[t]};
        }
      }
    }

    if (best.feature < 0 || best.impurity >= nodeImpurity - 1e-12) {
      node.label = majorityLabel();
      continue;
    }

    // Stable in-place partition of the node's range: left rows compact to
    // the front, right rows go through the spill buffer.
    const double* splitColumn =
        columns.column(static_cast<std::size_t>(best.feature));
    std::size_t leftEnd = item.begin;
    std::size_t rightCount = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const Sample sample = nodeSamples[k];
      if (splitColumn[sample.row] <= best.threshold) {
        samples[leftEnd++] = sample;
      } else {
        work.spill[rightCount++] = sample;
      }
    }
    std::copy_n(work.spill.begin(), rightCount,
                samples.begin() + static_cast<std::ptrdiff_t>(leftEnd));

    node.featureIndex = best.feature;
    node.threshold = best.threshold;
    const int leftIndex = static_cast<int>(nodes_.size());
    const int rightIndex = leftIndex + 1;
    // NOTE: `node` may dangle after push_back; write through the index.
    nodes_[static_cast<std::size_t>(item.nodeIndex)].left = leftIndex;
    nodes_[static_cast<std::size_t>(item.nodeIndex)].right = rightIndex;
    nodes_.push_back(Node{});
    nodes_.push_back(Node{});
    // Both children inherit this node's constant features.
    inherited.resize(stack.size() * words);
    for (int child = 0; child < 2; ++child) {
      inherited.insert(inherited.end(), constant.begin(), constant.end());
    }
    stack.push_back(
        WorkItem{item.begin, leftEnd, leftIndex, item.depth + 1});
    stack.push_back(
        WorkItem{leftEnd, item.end, rightIndex, item.depth + 1});
  }
}

int DecisionTree::predict(std::span<const double> features) const {
  if (nodes_.empty()) return 0;
  std::size_t current = 0;
  while (true) {
    const Node& node = nodes_[current];
    if (node.featureIndex < 0) return node.label;
    const double value =
        static_cast<std::size_t>(node.featureIndex) < features.size()
            ? features[static_cast<std::size_t>(node.featureIndex)]
            : 0.0;
    current = static_cast<std::size_t>(value <= node.threshold ? node.left
                                                               : node.right);
  }
}

void DecisionTree::save(std::ostream& os) const {
  os << "tree " << nodes_.size() << '\n';
  os << std::setprecision(17);
  for (const Node& node : nodes_) {
    os << node.featureIndex << ' ' << node.threshold << ' ' << node.left
       << ' ' << node.right << ' ' << node.label << ' ' << node.depth
       << '\n';
  }
}

DecisionTree DecisionTree::load(std::istream& is) {
  std::string tag;
  std::size_t count = 0;
  if (!(is >> tag >> count) || tag != "tree") {
    throw std::runtime_error("DecisionTree::load: bad header");
  }
  DecisionTree tree;
  tree.nodes_.resize(count);
  for (Node& node : tree.nodes_) {
    if (!(is >> node.featureIndex >> node.threshold >> node.left >>
          node.right >> node.label >> node.depth)) {
      throw std::runtime_error("DecisionTree::load: truncated node list");
    }
  }
  return tree;
}

void DecisionTree::accumulateSplitCounts(std::vector<double>& counts) const {
  for (const Node& node : nodes_) {
    if (node.featureIndex >= 0 &&
        static_cast<std::size_t>(node.featureIndex) < counts.size()) {
      counts[static_cast<std::size_t>(node.featureIndex)] += 1.0;
    }
  }
}

std::size_t DecisionTree::leafCount() const noexcept {
  std::size_t leaves = 0;
  for (const Node& node : nodes_) {
    if (node.featureIndex < 0) ++leaves;
  }
  return leaves;
}

std::size_t DecisionTree::depth() const noexcept {
  std::size_t depth = 0;
  for (const Node& node : nodes_) {
    depth = std::max(depth, static_cast<std::size_t>(node.depth));
  }
  return depth;
}

}  // namespace sca::ml
