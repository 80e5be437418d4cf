#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>

#include "ml/decision_tree.hpp"
#include "ml/matrix.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"

namespace sca::ml {
namespace {

/// Three Gaussian-ish blobs in 2-D, trivially separable.
Dataset blobs(std::size_t perClass, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset data;
  const double centers[3][2] = {{0, 0}, {5, 5}, {0, 5}};
  for (int label = 0; label < 3; ++label) {
    for (std::size_t i = 0; i < perClass; ++i) {
      data.x.push_back({centers[label][0] + rng.normal(0, 0.5),
                        centers[label][1] + rng.normal(0, 0.5)});
      data.y.push_back(label);
      data.groups.push_back(static_cast<int>(i % 4));
    }
  }
  return data;
}

TEST(Dataset, ValidateCatchesShapeErrors) {
  Dataset ok = blobs(5, 1);
  EXPECT_NO_THROW(ok.validate());
  Dataset ragged = blobs(5, 1);
  ragged.x[0].push_back(9.0);
  EXPECT_THROW(ragged.validate(), std::invalid_argument);
  Dataset mismatched = blobs(5, 1);
  mismatched.y.pop_back();
  EXPECT_THROW(mismatched.validate(), std::invalid_argument);
}

TEST(Dataset, SubsetCopiesRowsAndGroups) {
  const Dataset data = blobs(4, 2);
  const Dataset sub = data.subset({0, 5, 10});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.x[1], data.x[5]);
  EXPECT_EQ(sub.y[2], data.y[10]);
  EXPECT_EQ(sub.groups[0], data.groups[0]);
}

TEST(Dataset, ClassCount) {
  EXPECT_EQ(blobs(3, 3).classCount(), 3);
  Dataset empty;
  EXPECT_EQ(empty.classCount(), 0);
}

TEST(DecisionTree, FitsSeparableDataPerfectly) {
  const Dataset data = blobs(30, 4);
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree;
  tree.fit(FeatureColumns(data), data.y, all, 3, TreeConfig{}, util::Rng(1));
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (tree.predict(data.x[i]) == data.y[i]) ++hits;
  }
  EXPECT_EQ(hits, data.size());
  EXPECT_GT(tree.nodeCount(), 1u);
  EXPECT_GT(tree.leafCount(), 1u);
}

TEST(DecisionTree, ExactModeAlsoSeparates) {
  const Dataset data = blobs(30, 5);
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  TreeConfig config;
  config.thresholdsPerFeature = 0;  // exact sorted sweep
  DecisionTree tree;
  tree.fit(FeatureColumns(data), data.y, all, 3, config, util::Rng(2));
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (tree.predict(data.x[i]) == data.y[i]) ++hits;
  }
  EXPECT_EQ(hits, data.size());
}

TEST(DecisionTree, MaxDepthLimitsGrowth) {
  const Dataset data = blobs(30, 6);
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  TreeConfig config;
  config.maxDepth = 1;
  DecisionTree tree;
  tree.fit(FeatureColumns(data), data.y, all, 3, config, util::Rng(3));
  EXPECT_LE(tree.depth(), 1u);
  EXPECT_LE(tree.nodeCount(), 3u);
}

TEST(DecisionTree, PureNodeBecomesLeafImmediately) {
  Dataset data;
  for (int i = 0; i < 10; ++i) {
    data.x.push_back({static_cast<double>(i)});
    data.y.push_back(0);
  }
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree;
  tree.fit(FeatureColumns(data), data.y, all, 1, TreeConfig{}, util::Rng(4));
  EXPECT_EQ(tree.nodeCount(), 1u);
  EXPECT_EQ(tree.predict({42.0}), 0);
}

TEST(RandomForest, HighAccuracyOnBlobs) {
  const Dataset data = blobs(40, 7);
  ForestConfig config;
  config.treeCount = 25;
  RandomForest forest(config);
  forest.fit(data);
  const auto predictions = forest.predictAll(data.x);
  EXPECT_GT(accuracy(data.y, predictions), 0.97);
  EXPECT_EQ(forest.classCount(), 3);
  EXPECT_EQ(forest.treeCount(), 25u);
}

TEST(RandomForest, DeterministicForFixedSeed) {
  const Dataset data = blobs(20, 8);
  ForestConfig config;
  config.treeCount = 10;
  config.seed = 99;
  RandomForest a(config), b(config);
  a.fit(data);
  b.fit(data);
  const std::vector<double> probe = {2.5, 2.5};
  EXPECT_EQ(a.predict(probe), b.predict(probe));
  EXPECT_EQ(a.predictProba(probe), b.predictProba(probe));
}

TEST(RandomForest, ProbaSumsToOne) {
  const Dataset data = blobs(20, 9);
  RandomForest forest(ForestConfig{.treeCount = 15});
  forest.fit(data);
  const auto proba = forest.predictProba({0.1, 0.1});
  double sum = 0.0;
  for (const double p : proba) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(proba.size(), 3u);
}

TEST(RandomForest, ThrowsOnEmptyDataset) {
  RandomForest forest;
  EXPECT_THROW(forest.fit(Dataset{}), std::invalid_argument);
}

/// Spills `data` to a sca-matrix-v1 file and returns its path.
std::string spillToMatrix(const Dataset& data, const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove(path);
  MatrixWriter writer(data.dimension(), 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    writer.appendRow(data.row(i), data.y[i],
                     data.groups.empty() ? 0 : data.groups[i]);
  }
  EXPECT_TRUE(writer.finish(path).isOk());
  return path;
}

TEST(RandomForest, StreamingPredictAllIsIdenticalToResidentPath) {
  const Dataset data = blobs(40, 7);
  ForestConfig config;
  config.treeCount = 25;
  RandomForest forest(config);
  forest.fit(data);
  const std::vector<int> resident = forest.predictAll(data.x);

  auto opened =
      MatrixFile::open(spillToMatrix(data, "sca_ml_stream_eq.mtx"), 1);
  ASSERT_TRUE(opened.ok()) << opened.status().toString();
  const Dataset mapped = Dataset::fromMatrix(opened.value());

  // Same votes through every storage mode and thread cap — tiny residency
  // budget included, which forces block eviction mid-scan.
  EXPECT_EQ(forest.predictAll(mapped), resident);
  opened.value().setResidencyBudget(4096);
  EXPECT_EQ(forest.predictAll(mapped), resident);
  EXPECT_EQ(forest.predictAll(data), resident);

  ForestConfig serial = config;
  serial.threads = 1;
  RandomForest serialForest(serial);
  serialForest.fit(data);
  EXPECT_EQ(serialForest.predictAll(mapped), resident);
}

TEST(RandomForest, FitOnViewsAndMatrixMatchesFitOnCopies) {
  const Dataset data = blobs(30, 11);
  std::vector<std::size_t> train;
  for (std::size_t i = 0; i < data.size(); i += 2) train.push_back(i);

  ForestConfig config;
  config.treeCount = 15;
  config.seed = 41;

  RandomForest onCopy(config), onView(config), onMatrix(config);
  onCopy.fit(data.subset(train));
  onView.fit(data.subsetView(train));

  auto opened =
      MatrixFile::open(spillToMatrix(data, "sca_ml_fit_modes.mtx"), 1);
  ASSERT_TRUE(opened.ok());
  const Dataset mapped = Dataset::fromMatrix(opened.value());
  onMatrix.fit(mapped.subsetView(train));

  const std::vector<int> expected = onCopy.predictAll(data.x);
  EXPECT_EQ(onView.predictAll(data), expected);
  EXPECT_EQ(onMatrix.predictAll(data), expected);
}

// Golden forests: FNV-1a hashes of RandomForest::save text for fixed seeds.
// Every table in the paper comes out of these trees, so any change to the
// split search that moves a single threshold, tie-break or node number
// shows up here. The hashes were recorded on the original per-threshold
// scan; a faster split search must reproduce them unchanged.

std::uint64_t forestHash(const Dataset& data, const ForestConfig& config) {
  RandomForest forest(config);
  forest.fit(data);
  std::ostringstream text;
  forest.save(text);
  return util::hash64(text.str());
}

/// `classes` labels with `perClass` rows each over `dims` features. Values
/// sit on a 0.5 grid (so nodes see many duplicates) around a per-class
/// centre; the spread lets several classes share each region, so deep
/// nodes hold a handful of the classes only.
Dataset manyClassData(int classes, std::size_t perClass, std::size_t dims,
                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> centres(static_cast<std::size_t>(classes));
  for (auto& centre : centres) {
    for (std::size_t d = 0; d < dims; ++d) {
      centre.push_back(rng.uniformReal(0.0, 6.0));
    }
  }
  Dataset data;
  for (int label = 0; label < classes; ++label) {
    for (std::size_t i = 0; i < perClass; ++i) {
      std::vector<double> row;
      for (std::size_t d = 0; d < dims; ++d) {
        const double value =
            centres[static_cast<std::size_t>(label)][d] + rng.normal(0, 1.0);
        row.push_back(std::round(value * 2.0) / 2.0);
      }
      data.x.push_back(std::move(row));
      data.y.push_back(label);
      data.groups.push_back(static_cast<int>(i));
    }
  }
  return data;
}

/// Three classes over a feature made of adjacent doubles 1 + k*eps,
/// k = 0..7. For odd k, 0.5*((1+k*eps) + (1+(k+1)*eps)) rounds up to the
/// larger value, so the left side of that midpoint holds k+1 as well. Plus
/// a coarse feature full of duplicates and a noisy one.
Dataset adjacentDoubleData(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  const double eps = std::numeric_limits<double>::epsilon();
  Dataset data;
  for (std::size_t i = 0; i < rows; ++i) {
    const int k = static_cast<int>(rng.uniformInt(0, 7));
    int label = k <= 3 ? 0 : (k <= 5 ? 1 : 2);
    if (rng.bernoulli(0.1)) label = static_cast<int>(rng.uniformInt(0, 2));
    data.x.push_back({1.0 + k * eps,
                      0.25 * static_cast<double>(rng.uniformInt(0, 4)),
                      rng.normal(static_cast<double>(label), 1.5)});
    data.y.push_back(label);
  }
  return data;
}

TEST(GoldenForest, AdjacentDoubleMidpointRoundsUp) {
  // Guards the premise of the exact-sweep pin below.
  const double eps = std::numeric_limits<double>::epsilon();
  const double a = 1.0 + 3 * eps;
  const double b = 1.0 + 4 * eps;
  EXPECT_EQ(0.5 * (a + b), b);
  EXPECT_EQ(0.5 * (1.0 + (1.0 + eps)), 1.0);
}

TEST(GoldenForest, ManyClassesRandomized) {
  const Dataset data = manyClassData(120, 3, 24, 101);
  ForestConfig config;
  config.treeCount = 10;
  config.seed = 7;
  EXPECT_EQ(forestHash(data, config), 0x924c654fd6d20247ULL);
}

TEST(GoldenForest, TwoClassesRandomized) {
  const Dataset data = manyClassData(2, 150, 12, 202);
  ForestConfig config;
  config.treeCount = 10;
  config.seed = 8;
  EXPECT_EQ(forestHash(data, config), 0x66eac1851f2d4b48ULL);
}

TEST(GoldenForest, ExactSweepWithDuplicatesAndAdjacentDoubles) {
  const Dataset data = adjacentDoubleData(160, 303);
  ForestConfig config;
  config.treeCount = 10;
  config.seed = 9;
  config.tree.thresholdsPerFeature = 0;
  config.tree.featuresPerSplit = 2;
  EXPECT_EQ(forestHash(data, config), 0xca60e6d33c07c481ULL);

  const Dataset wide = manyClassData(40, 4, 10, 304);
  EXPECT_EQ(forestHash(wide, config), 0x2ff703c8d47135d8ULL);
}

TEST(GoldenForest, MinLeafAndShallowDepth) {
  const Dataset data = manyClassData(120, 3, 24, 101);
  ForestConfig config;
  config.treeCount = 10;
  config.seed = 10;
  config.tree.minSamplesLeaf = 3;
  config.tree.maxDepth = 5;
  EXPECT_EQ(forestHash(data, config), 0x4441254fa2f6b2b1ULL);
  config.tree.thresholdsPerFeature = 0;
  EXPECT_EQ(forestHash(data, config), 0x9ca4598ea19cbc40ULL);
}

/// `classes` labels with `perClass` rows each over `dims` features, like
/// sparse stylometric counts: each class is nonzero on three of the first
/// dims-1 columns only, so below the root most columns are zero over the
/// node. The last column is noise with NaN in about one row in six.
Dataset sparseNaNData(int classes, std::size_t perClass, std::size_t dims,
                      std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset data;
  for (int label = 0; label < classes; ++label) {
    std::vector<double> centre(dims, 0.0);
    for (int a = 0; a < 3; ++a) {
      centre[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(dims) - 2))] = rng.uniformReal(1.0, 6.0);
    }
    for (std::size_t i = 0; i < perClass; ++i) {
      std::vector<double> row(dims, 0.0);
      for (std::size_t d = 0; d + 1 < dims; ++d) {
        if (centre[d] != 0.0) {
          row[d] = std::round((centre[d] + rng.normal(0, 0.7)) * 2.0) / 2.0;
        }
      }
      row[dims - 1] = rng.bernoulli(1.0 / 6.0)
                          ? std::numeric_limits<double>::quiet_NaN()
                          : rng.normal(static_cast<double>(label % 5), 2.0);
      data.x.push_back(std::move(row));
      data.y.push_back(label);
    }
  }
  return data;
}

TEST(GoldenForest, SparseConstantColumnsAndNaN) {
  const Dataset data = sparseNaNData(40, 5, 30, 505);
  ForestConfig config;
  config.treeCount = 10;
  config.seed = 12;
  EXPECT_EQ(forestHash(data, config), 0x3be4db3e99782cf8ULL);
  config.tree.thresholdsPerFeature = 0;
  EXPECT_EQ(forestHash(data, config), 0x92667a4a8756c71eULL);
}

TEST(DecisionTree, BootstrapOrderDoesNotChangeTheTree) {
  // The forest sorts its bootstrap, so a tree sees every repeat of a row
  // next to the first and counts the run as one weighted sample. The same
  // draws shuffled, with the repeats apart, must fit the same tree.
  const Dataset data = manyClassData(30, 6, 12, 606);
  util::Rng draw(7);
  std::vector<std::size_t> shuffled(data.size());
  for (std::size_t& i : shuffled) {
    i = static_cast<std::size_t>(
        draw.uniformInt(0, static_cast<std::int64_t>(data.size()) - 1));
  }
  std::vector<std::size_t> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_NE(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (const std::size_t thresholds : {std::size_t{8}, std::size_t{0}}) {
    TreeConfig config;
    config.thresholdsPerFeature = thresholds;
    DecisionTree fromSorted, fromShuffled;
    const FeatureColumns columns(data);
    fromSorted.fit(columns, data.y, sorted, 30, config, util::Rng(8));
    fromShuffled.fit(columns, data.y, shuffled, 30, config, util::Rng(8));
    std::ostringstream a, b;
    fromSorted.save(a);
    fromShuffled.save(b);
    EXPECT_EQ(a.str(), b.str()) << "thresholdsPerFeature=" << thresholds;
    EXPECT_GT(fromSorted.nodeCount(), 1u);
  }
}

TEST(GoldenForest, StorageModesGiveIdenticalBytes) {
  const Dataset data = manyClassData(120, 3, 24, 101);
  std::vector<std::size_t> train;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 5 != 2) train.push_back(i);
  }
  ForestConfig config;
  config.treeCount = 10;
  config.seed = 11;

  const std::uint64_t owned = forestHash(data.subset(train), config);
  EXPECT_EQ(owned, 0x70e7d9304c7dd2a0ULL);
  EXPECT_EQ(forestHash(data.subsetView(train), config), owned);

  auto opened =
      MatrixFile::open(spillToMatrix(data, "sca_ml_golden.mtx"), 1);
  ASSERT_TRUE(opened.ok()) << opened.status().toString();
  const Dataset mapped = Dataset::fromMatrix(opened.value());
  EXPECT_EQ(forestHash(mapped.subsetView(train), config), owned);
  // A tiny residency budget evicts pages mid-fit; the bytes cannot move.
  opened.value().setResidencyBudget(4096);
  EXPECT_EQ(forestHash(mapped.subsetView(train), config), owned);
}

TEST(DecisionTree, SaveLoadRoundTrip) {
  const Dataset data = blobs(25, 12);
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree;
  tree.fit(FeatureColumns(data), data.y, all, 3, TreeConfig{}, util::Rng(5));
  std::stringstream buffer;
  tree.save(buffer);
  const DecisionTree restored = DecisionTree::load(buffer);
  EXPECT_EQ(restored.nodeCount(), tree.nodeCount());
  for (const auto& row : data.x) {
    EXPECT_EQ(restored.predict(row), tree.predict(row));
  }
}

TEST(DecisionTree, LoadRejectsGarbage) {
  std::stringstream bad("nonsense 3");
  EXPECT_THROW(DecisionTree::load(bad), std::runtime_error);
  std::stringstream truncated("tree 2\n1 0.5 1 2 -1 0\n");
  EXPECT_THROW(DecisionTree::load(truncated), std::runtime_error);
}

TEST(RandomForest, SaveLoadKeepsPredictions) {
  const Dataset data = blobs(20, 13);
  RandomForest forest(ForestConfig{.treeCount = 12});
  forest.fit(data);
  std::stringstream buffer;
  forest.save(buffer);
  const RandomForest restored = RandomForest::load(buffer);
  EXPECT_EQ(restored.classCount(), forest.classCount());
  EXPECT_EQ(restored.treeCount(), forest.treeCount());
  for (const auto& row : data.x) {
    EXPECT_EQ(restored.predict(row), forest.predict(row));
    EXPECT_EQ(restored.predictProba(row), forest.predictProba(row));
  }
}

TEST(RandomForest, FeatureImportancesNormalizedAndInformative) {
  // Feature 0 separates the blobs; feature 2 is constant noise.
  Dataset data = blobs(30, 14);
  for (auto& row : data.x) row.push_back(0.5);  // constant third column
  RandomForest forest(ForestConfig{.treeCount = 20});
  forest.fit(data);
  const auto importances = forest.featureImportances(3);
  ASSERT_EQ(importances.size(), 3u);
  double sum = 0.0;
  for (const double v : importances) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(importances[2], 0.0);  // constant column never splits
  EXPECT_GT(importances[0] + importances[1], 0.9);
}

TEST(Metrics, AccuracyBasics) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3}, {1, 0, 3}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(accuracy({}, {}), 0.0);
  EXPECT_THROW(accuracy({1}, {}), std::invalid_argument);
}

TEST(Metrics, ConfusionMatrixCells) {
  const ConfusionMatrix cm(2, {0, 0, 1, 1}, {0, 1, 1, 1});
  EXPECT_EQ(cm.at(0, 0), 1u);
  EXPECT_EQ(cm.at(0, 1), 1u);
  EXPECT_EQ(cm.at(1, 1), 2u);
  EXPECT_DOUBLE_EQ(cm.recall(1), 1.0);
  EXPECT_DOUBLE_EQ(cm.recall(0), 0.5);
  EXPECT_NEAR(cm.precision(1), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.f1(1), 0.8, 1e-9);
  EXPECT_DOUBLE_EQ(cm.macroRecall(), 0.75);
}

TEST(Metrics, ConfusionValidatesRange) {
  EXPECT_THROW(ConfusionMatrix(2, {0, 2}, {0, 0}), std::out_of_range);
}

TEST(Metrics, PercentFormatting) {
  EXPECT_EQ(percent(0.931), "93.1");
  EXPECT_EQ(percent(1.0, 0), "100");
}

}  // namespace
}  // namespace sca::ml
