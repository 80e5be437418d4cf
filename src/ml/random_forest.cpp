#include "ml/random_forest.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "ml/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace sca::ml {

RandomForest::RandomForest(ForestConfig config) : config_(config) {}

namespace {

/// One forest of a batch while its trees grow.
struct ForestJob {
  std::size_t rows = 0;  // the dataset's size, read before its rows go
  std::size_t bootstrapSize = 0;
  std::vector<util::Rng> treeRngs;
  std::once_flag columnsOnce;
  std::optional<FeatureColumns> columns;
  std::atomic<std::size_t> treesLeft{0};
};

}  // namespace

void RandomForest::fit(const Dataset& data) {
  RandomForest* const forest = this;
  const Dataset* const rows = &data;
  fitForests({&forest, 1}, {&rows, 1}, [](std::size_t) {});
}

void RandomForest::fitBatch(std::span<RandomForest* const> forests,
                            std::span<Dataset> data) {
  if (forests.size() != data.size()) {
    throw std::invalid_argument("RandomForest::fitBatch: size mismatch");
  }
  std::vector<const Dataset*> views;
  views.reserve(data.size());
  for (const Dataset& d : data) views.push_back(&d);
  fitForests(forests, views, [&](std::size_t f) {
    std::vector<std::vector<double>>().swap(data[f].x);
  });
}

void RandomForest::fitForests(
    std::span<RandomForest* const> forests,
    std::span<const Dataset* const> data,
    const std::function<void(std::size_t)>& columnsBuilt) {
  obs::Span span("forest_fit", "ml");
  for (const Dataset* d : data) {
    d->validate();
    if (d->size() == 0) throw std::invalid_argument("forest: empty dataset");
  }
  // Tree count is configuration, not scheduling, so the counter is stable.
  static obs::Counter treesFitted =
      obs::MetricsRegistry::global().counter("ml_trees_fitted");

  std::vector<ForestJob> jobs(forests.size());
  std::vector<std::size_t> firstPair;  // forest f's tree t is pair
  firstPair.reserve(forests.size());   // firstPair[f] + t
  std::size_t pairs = 0;
  std::size_t threads = 0;
  for (std::size_t f = 0; f < forests.size(); ++f) {
    RandomForest& forest = *forests[f];
    const ForestConfig& config = forest.config_;
    ForestJob& job = jobs[f];
    treesFitted.add(config.treeCount);
    forest.classCount_ = data[f]->classCount();
    forest.trees_.assign(config.treeCount, DecisionTree{});
    job.rows = data[f]->size();
    job.bootstrapSize = std::max<std::size_t>(
        1, static_cast<std::size_t>(config.bootstrapFraction *
                                    static_cast<double>(job.rows)));
    // Pre-derive per-tree seeds so that fitting is deterministic regardless
    // of thread scheduling.
    util::Rng root(config.seed);
    job.treeRngs.reserve(config.treeCount);
    for (std::size_t t = 0; t < config.treeCount; ++t) {
      job.treeRngs.push_back(root.derive(static_cast<std::uint64_t>(t)));
    }
    job.treesLeft.store(config.treeCount);
    firstPair.push_back(pairs);
    pairs += config.treeCount;
    if (config.threads > 0) {
      threads =
          threads == 0 ? config.threads : std::min(threads, config.threads);
    }
  }

  // Pairs go through the shared pool forest by forest, so forests finish
  // (and free their columns) in order. Nested-guard aware: a batch fitted
  // inside a parallel CV fold runs its trees serially on that fold's
  // worker. Seeds are pre-derived per tree, so scheduling never matters.
  runtime::ParallelOptions options;
  options.maxWorkers = threads;
  runtime::parallelFor(
      0, pairs,
      [&](std::size_t pair) {
        const std::size_t f = static_cast<std::size_t>(
            std::upper_bound(firstPair.begin(), firstPair.end(), pair) -
            firstPair.begin() - 1);
        const std::size_t t = pair - firstPair[f];
        RandomForest& forest = *forests[f];
        ForestJob& job = jobs[f];
        // One feature-major copy of the rows, shared read-only by every
        // tree of the forest.
        std::call_once(job.columnsOnce, [&] {
          job.columns.emplace(*data[f]);
          columnsBuilt(f);
        });
        util::Rng rng = job.treeRngs[t];
        std::vector<std::size_t> bootstrap(job.bootstrapSize);
        for (std::size_t i = 0; i < job.bootstrapSize; ++i) {
          bootstrap[i] = static_cast<std::size_t>(
              rng.uniformInt(0, static_cast<std::int64_t>(job.rows) - 1));
        }
        // Ascending bootstrap puts every repeat of a row next to the
        // first, which the tree counts as one weighted sample, and makes
        // every node's column reads a forward scan. (mmap-backed and view
        // rows are read once per forest, in order, by the transpose
        // above.) It cannot change the fitted tree: per-node class counts,
        // gini, feature min/max, the sorted exact sweep, and the RNG draw
        // order are all invariant under sample permutation, and the
        // partition step preserves whatever order it is given.
        std::sort(bootstrap.begin(), bootstrap.end());
        forest.trees_[t].fit(*job.columns, data[f]->y, bootstrap,
                             forest.classCount_, forest.config_.tree,
                             rng.derive("tree"));
        if (job.treesLeft.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          job.columns.reset();
        }
      },
      options);
}

void RandomForest::save(std::ostream& os) const {
  os << "forest " << classCount_ << ' ' << trees_.size() << '\n';
  for (const DecisionTree& tree : trees_) tree.save(os);
}

RandomForest RandomForest::load(std::istream& is) {
  std::string tag;
  int classCount = 0;
  std::size_t treeCount = 0;
  if (!(is >> tag >> classCount >> treeCount) || tag != "forest") {
    throw std::runtime_error("RandomForest::load: bad header");
  }
  RandomForest forest;
  forest.classCount_ = classCount;
  forest.trees_.reserve(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t) {
    forest.trees_.push_back(DecisionTree::load(is));
  }
  return forest;
}

std::vector<double> RandomForest::featureImportances(
    std::size_t dimension) const {
  std::vector<double> counts(dimension, 0.0);
  for (const DecisionTree& tree : trees_) {
    tree.accumulateSplitCounts(counts);
  }
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total > 0.0) {
    for (double& c : counts) c /= total;
  }
  return counts;
}

std::vector<double> RandomForest::predictProba(
    std::span<const double> features) const {
  std::vector<double> votes(static_cast<std::size_t>(classCount_), 0.0);
  if (trees_.empty()) return votes;
  for (const DecisionTree& tree : trees_) {
    const int label = tree.predict(features);
    if (label >= 0 && label < classCount_) {
      votes[static_cast<std::size_t>(label)] += 1.0;
    }
  }
  for (double& v : votes) v /= static_cast<double>(trees_.size());
  return votes;
}

int RandomForest::predict(std::span<const double> features) const {
  const std::vector<double> votes = predictProba(features);
  if (votes.empty()) return 0;
  return static_cast<int>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<int> RandomForest::predictAll(
    const std::vector<std::vector<double>>& rows) const {
  obs::Span span("forest_predict", "ml");
  static obs::Counter rowsPredicted =
      obs::MetricsRegistry::global().counter("ml_rows_predicted");
  rowsPredicted.add(rows.size());
  std::vector<int> out(rows.size(), 0);
  runtime::ParallelOptions options;
  options.maxWorkers = config_.threads;
  options.grain = 16;  // one row is microseconds; batch them
  runtime::parallelFor(
      0, rows.size(), [&](std::size_t i) { out[i] = predict(rows[i]); },
      options);
  return out;
}

std::vector<int> RandomForest::predictAll(const Dataset& data) const {
  obs::Span span("forest_predict", "ml");
  static obs::Counter rowsPredicted =
      obs::MetricsRegistry::global().counter("ml_rows_predicted");
  rowsPredicted.add(data.size());
  std::vector<int> out(data.size(), 0);
  runtime::ParallelOptions options;
  options.maxWorkers = config_.threads;
  options.grain = 16;  // one row is microseconds; batch them
  const auto predictRange = [&](std::size_t begin, std::size_t end) {
    runtime::parallelFor(
        begin, end, [&](std::size_t i) { out[i] = predict(data.row(i)); },
        options);
  };
  if (data.matrix != nullptr) {
    // Sequential blocks over the mapped matrix: each block's pages are
    // dropped before the next is touched, so prediction over a matrix
    // larger than memory keeps roughly one block resident. Row blocks
    // target ~8 MiB of payload each.
    const std::size_t rowBytes = std::max<std::size_t>(
        1, data.matrix->cols() * sizeof(double));
    const std::size_t rowsPerBlock =
        std::max<std::size_t>(1, (std::size_t{8} << 20) / rowBytes);
    RowBlockReader blocks(*data.matrix, rowsPerBlock);
    while (blocks.next()) {
      predictRange(blocks.beginRow(), blocks.endRow());
    }
  } else {
    predictRange(0, data.size());
  }
  return out;
}

}  // namespace sca::ml
