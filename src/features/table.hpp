// One feature table per corpus; folds are views of it (DESIGN.md §2.10).
//
// Only the vocabularies of a FeatureExtractor depend on the training fold.
// Every other column of a source is a fixed function of that source, and an
// identifier-unigram or statement-bigram column is the term's count over
// the source's total term count, whichever terms the vocabulary keeps. A
// FeatureTable therefore analyses each source of a cross-validation loop
// once and keeps its fixed columns and term counts. A fold is an ascending
// list of training rows: its vocabularies rank the table's dictionary by
// document frequency over those rows, and its rows, training and held-out
// alike, are projected from the table. Both are bit-identical to
// FeatureExtractor::fit and FeatureExtractor::transform over the same
// sources.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "features/extractor.hpp"
#include "features/selection.hpp"
#include "features/vocabulary.hpp"

namespace sca::features {

/// The distinct terms of one document in first-occurrence order, with
/// their counts and the document's total term count (duplicates included).
struct TermBag {
  std::vector<std::string> terms;
  std::vector<std::uint32_t> counts;
  std::uint64_t total = 0;
};

/// Counts one document's terms, one occurrence at a time; finish() once.
class TermBagBuilder {
 public:
  void add(std::string_view term);
  [[nodiscard]] TermBag finish();

 private:
  std::deque<std::string> terms_;  // stable addresses for the keys below
  std::unordered_map<std::string_view, std::uint32_t> slot_;
  TermBag bag_;
};

/// Term counts of a corpus, one row per document, against a dictionary
/// sorted by name. A term's id is its position in the dictionary.
class TermCounts {
 public:
  TermCounts() = default;
  explicit TermCounts(std::vector<TermBag> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return totals_.size(); }

  /// The `maxTerms` terms of highest document frequency over every row
  /// except `heldOutRows` (ascending, distinct), ties broken by id, which
  /// is name order: exactly Vocabulary::fit over the remaining documents.
  [[nodiscard]] Vocabulary fit(const std::vector<std::size_t>& heldOutRows,
                               std::size_t maxTerms) const;

  /// `vocab.size()` columns of `row`: count / total for each vocabulary
  /// term, zero for a term the row lacks (all zero for a termless row).
  /// `columnOf` maps a term id to its column or -1 (see columnsOf).
  void project(std::size_t row, const std::vector<std::int32_t>& columnOf,
               double* out) const;

  /// Term id -> column of `vocab`, -1 for a term outside it.
  [[nodiscard]] std::vector<std::int32_t> columnsOf(
      const Vocabulary& vocab) const;

 private:
  std::vector<std::string> dictionary_;          // sorted, distinct
  std::vector<std::uint32_t> documentFrequency_; // by id, over all rows
  std::vector<std::size_t> offsets_;             // rows + 1, into ids_
  std::vector<std::uint32_t> ids_;               // each row's term ids
  std::vector<std::uint32_t> counts_;            // parallel to ids_
  std::vector<std::uint64_t> totals_;            // by row
};

class FeatureTable {
 public:
  /// One analysis-cache lookup per source, in parallel. The sources need
  /// not outlive the table.
  explicit FeatureTable(const std::vector<const std::string*>& sources);
  explicit FeatureTable(const std::vector<std::string>& sources);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

  /// An extractor fitted on the sources of `trainRows` (ascending,
  /// distinct, in range): the same vocabularies as
  /// FeatureExtractor(config).fit() over those sources. Throws
  /// std::invalid_argument on a malformed row list.
  [[nodiscard]] FeatureExtractor fitExtractor(
      const ExtractorConfig& config,
      const std::vector<std::size_t>& trainRows) const;

  /// Hands the feature vector of each of `rows`, in order, to `visit`:
  /// the vector in `extractor`'s schema, equal bit for bit to
  /// extractor.transform() of that row's source. One buffer is reused for
  /// every row, so a scan holds one row, not the fold. Throws
  /// std::out_of_range on a row outside the table.
  void forEachRow(const FeatureExtractor& extractor,
                  const std::vector<std::size_t>& rows,
                  const RowVisitor& visit) const;

  /// selector.apply() of the feature vector of each of `rows` (see
  /// forEachRow): only the selected columns, all of them by default.
  [[nodiscard]] std::vector<std::vector<double>> project(
      const FeatureExtractor& extractor, const std::vector<std::size_t>& rows,
      const FeatureSelector& selector = FeatureSelector()) const;

 private:
  std::size_t rows_ = 0;
  // Each row's fixed columns, family after family in schema order;
  // family f spans [fixedStart_[f], fixedStart_[f + 1]) of a row.
  std::array<std::size_t, 4> fixedStart_{};
  std::vector<double> fixed_;  // rows_ x fixedStart_[3]
  TermCounts identifiers_;
  TermCounts bigrams_;
};

}  // namespace sca::features
