// AttributionModel: the end-to-end authorship classifier
// (feature extraction -> information-gain selection -> random forest),
// i.e. the Caliskan-Islam pipeline every experiment in the paper uses.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "features/extractor.hpp"
#include "features/selection.hpp"
#include "features/table.hpp"
#include "ml/random_forest.hpp"

namespace sca::core {

struct ModelConfig {
  features::ExtractorConfig extractor;
  /// Features kept by information gain; 0 disables selection.
  std::size_t selectTopK = 350;
  ml::ForestConfig forest;
};

class AttributionModel {
 public:
  explicit AttributionModel(ModelConfig config = {});

  /// Trains on parallel arrays of source text and class label (labels must
  /// be contiguous from 0). The feature vocabularies, the selector and the
  /// forest are all fitted on exactly these samples: the all-rows view of
  /// a one-off FeatureTable over `sources`.
  void train(const std::vector<std::string>& sources,
             const std::vector<int>& labels);

  /// Trains on rows `rows` (ascending) of `table`, `labels[i]` being the
  /// class of rows[i]. The same model as train() on those rows' sources.
  /// trainAll() of this model alone.
  void train(const features::FeatureTable& table,
             const std::vector<std::size_t>& rows,
             const std::vector<int>& labels);

  /// The training rows of one model in trainAll().
  struct TrainingRows {
    const std::vector<std::size_t>& rows;  // ascending rows of the table
    const std::vector<int>& labels;        // the class of each row
  };

  /// models[i]->train(table, jobs[i].rows, jobs[i].labels) for every i,
  /// each model under its own config. First, concurrently across models,
  /// each fits its vocabularies, streams its training rows twice through
  /// the selector and projects only the selected columns; then one
  /// RandomForest::fitBatch grows every model's trees. No model holds a
  /// full row matrix of its training rows. Throws std::invalid_argument
  /// before any work on a size mismatch or an empty training set.
  static void trainAll(std::span<AttributionModel* const> models,
                       const features::FeatureTable& table,
                       std::span<const TrainingRows> jobs);

  [[nodiscard]] int predict(const std::string& source) const;

  /// predict() of every source. Each distinct text is extracted and
  /// predicted once, at its first occurrence, and its label is copied to
  /// every equal source; transformed corpora repeat texts heavily. One
  /// parallel extraction over the distinct texts, then one
  /// RandomForest::predictAll of their rows, so `ml_rows_predicted` counts
  /// distinct texts.
  [[nodiscard]] std::vector<int> predictAll(
      const std::vector<std::string>& sources) const;

  /// predictAll() of the sources of `rows` of `table`, read from the table.
  [[nodiscard]] std::vector<int> predictRows(
      const features::FeatureTable& table,
      const std::vector<std::size_t>& rows) const;

  /// Per-class vote fractions for one source.
  [[nodiscard]] std::vector<double> predictProba(
      const std::string& source) const;

  [[nodiscard]] int classCount() const noexcept {
    return forest_.classCount();
  }
  [[nodiscard]] bool trained() const noexcept { return forest_.trained(); }
  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }
  [[nodiscard]] const features::FeatureExtractor& extractor() const noexcept {
    return extractor_;
  }
  [[nodiscard]] const features::FeatureSelector& selector() const noexcept {
    return selector_;
  }

  /// The `n` most split-on features of the trained forest, as
  /// (feature name, normalized importance) pairs in descending order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> topFeatures(
      std::size_t n) const;

  /// Persists a trained model (vocabularies, selection, forest) as text.
  /// Training hyperparameters that only matter during fit() are dropped.
  void save(std::ostream& os) const;
  static AttributionModel load(std::istream& is);

  /// File-path convenience wrappers (throw std::runtime_error on IO error).
  void saveFile(const std::string& path) const;
  static AttributionModel loadFile(const std::string& path);

 private:
  ModelConfig config_;
  features::FeatureExtractor extractor_;
  features::FeatureSelector selector_;
  ml::RandomForest forest_;
};

}  // namespace sca::core
