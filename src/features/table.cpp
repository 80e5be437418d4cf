#include "features/table.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "features/source_features.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"

namespace sca::features {

void TermBagBuilder::add(std::string_view term) {
  ++bag_.total;
  const auto it = slot_.find(term);
  if (it != slot_.end()) {
    ++bag_.counts[it->second];
    return;
  }
  slot_.emplace(terms_.emplace_back(term),
                static_cast<std::uint32_t>(bag_.counts.size()));
  bag_.counts.push_back(1);
}

TermBag TermBagBuilder::finish() {
  slot_.clear();
  bag_.terms.assign(std::make_move_iterator(terms_.begin()),
                    std::make_move_iterator(terms_.end()));
  terms_.clear();
  return std::move(bag_);
}

TermCounts::TermCounts(std::vector<TermBag> rows) {
  // Dictionary: every distinct term, sorted by name, so a term's id orders
  // exactly as Vocabulary::fit's name tie-break does.
  std::unordered_map<std::string_view, std::uint32_t> firstSeen;
  std::vector<std::string_view> names;
  for (const TermBag& row : rows) {
    for (const std::string& term : row.terms) {
      if (firstSeen.try_emplace(term, names.size()).second) {
        names.push_back(term);
      }
    }
  }
  std::vector<std::uint32_t> order(names.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return names[a] < names[b];
  });
  std::vector<std::uint32_t> idOf(names.size());
  dictionary_.reserve(names.size());
  for (std::uint32_t id = 0; id < order.size(); ++id) {
    idOf[order[id]] = id;
    dictionary_.emplace_back(names[order[id]]);
  }

  // Rows in CSR form.
  documentFrequency_.assign(dictionary_.size(), 0);
  offsets_.reserve(rows.size() + 1);
  offsets_.push_back(0);
  totals_.reserve(rows.size());
  for (const TermBag& row : rows) {
    for (std::size_t i = 0; i < row.terms.size(); ++i) {
      const std::uint32_t id = idOf[firstSeen.find(row.terms[i])->second];
      ids_.push_back(id);
      counts_.push_back(row.counts[i]);
      ++documentFrequency_[id];
    }
    offsets_.push_back(ids_.size());
    totals_.push_back(row.total);
  }
}

Vocabulary TermCounts::fit(const std::vector<std::size_t>& heldOutRows,
                           std::size_t maxTerms) const {
  // Document frequency over the training rows = all rows minus held-out
  // rows. Integer counts, so the order of subtraction cannot matter.
  std::vector<std::uint32_t> frequency = documentFrequency_;
  std::size_t next = 0;
  for (const std::size_t row : heldOutRows) {
    if (row < next || row >= rows()) {
      throw std::invalid_argument(
          "TermCounts::fit: held-out rows must ascend within the table");
    }
    next = row + 1;
    for (std::size_t k = offsets_[row]; k < offsets_[row + 1]; ++k) {
      --frequency[ids_[k]];
    }
  }
  std::vector<std::uint32_t> ranked;
  for (std::uint32_t id = 0; id < frequency.size(); ++id) {
    if (frequency[id] > 0) ranked.push_back(id);
  }
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    if (frequency[a] != frequency[b]) return frequency[a] > frequency[b];
    return a < b;
  };
  const std::size_t kept = std::min(maxTerms, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + kept, ranked.end(),
                    before);
  std::vector<std::string> terms;
  terms.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    terms.push_back(dictionary_[ranked[i]]);
  }
  return Vocabulary::fromTerms(std::move(terms));
}

std::vector<std::int32_t> TermCounts::columnsOf(const Vocabulary& vocab) const {
  std::vector<std::int32_t> columnOf(dictionary_.size(), -1);
  const std::vector<std::string>& terms = vocab.terms();
  for (std::size_t column = 0; column < terms.size(); ++column) {
    const auto it =
        std::lower_bound(dictionary_.begin(), dictionary_.end(), terms[column]);
    if (it != dictionary_.end() && *it == terms[column]) {
      columnOf[static_cast<std::size_t>(it - dictionary_.begin())] =
          static_cast<std::int32_t>(column);
    }
  }
  return columnOf;
}

void TermCounts::project(std::size_t row,
                         const std::vector<std::int32_t>& columnOf,
                         double* out) const {
  // count / total is the value Vocabulary::vectorize reaches by adding 1.0
  // `count` times (exact for any count below 2^53) and then dividing by
  // the total; an absent term stays +0.0 either way.
  const double total = static_cast<double>(totals_[row]);
  for (std::size_t k = offsets_[row]; k < offsets_[row + 1]; ++k) {
    const std::int32_t column = columnOf[ids_[k]];
    if (column >= 0) out[column] = static_cast<double>(counts_[k]) / total;
  }
}

FeatureTable::FeatureTable(const std::vector<std::string>& sources)
    : FeatureTable([&] {
        std::vector<const std::string*> pointers;
        pointers.reserve(sources.size());
        for (const std::string& source : sources) pointers.push_back(&source);
        return pointers;
      }()) {}

FeatureTable::FeatureTable(const std::vector<const std::string*>& sources)
    : rows_(sources.size()) {
  std::vector<detail::SourceFeatures> extracted;
  {
    // The same "analysis" phase FeatureExtractor::fit opens, once per
    // table rather than once per fold.
    runtime::PhaseTimer timer("analysis");
    extracted = runtime::parallelMap<detail::SourceFeatures>(
        sources.size(),
        [&](std::size_t i) {
          return detail::extractSource(*sources[i], /*withFixed=*/true);
        },
        runtime::ParallelOptions{.maxWorkers = 0, .grain = 8});
  }
  if (!extracted.empty()) {
    for (std::size_t f = 0; f < 3; ++f) {
      fixedStart_[f + 1] = fixedStart_[f] + extracted[0].fixed[f].size();
    }
  }
  fixed_.reserve(rows_ * fixedStart_[3]);
  std::vector<TermBag> identifierBags;
  std::vector<TermBag> bigramBags;
  identifierBags.reserve(rows_);
  bigramBags.reserve(rows_);
  for (detail::SourceFeatures& row : extracted) {
    for (const std::vector<double>& family : row.fixed) {
      fixed_.insert(fixed_.end(), family.begin(), family.end());
    }
    identifierBags.push_back(std::move(row.identifiers));
    bigramBags.push_back(std::move(row.bigrams));
  }
  identifiers_ = TermCounts(std::move(identifierBags));
  bigrams_ = TermCounts(std::move(bigramBags));
}

FeatureExtractor FeatureTable::fitExtractor(
    const ExtractorConfig& config,
    const std::vector<std::size_t>& trainRows) const {
  std::vector<std::size_t> heldOut;
  std::size_t next = 0;
  for (const std::size_t row : trainRows) {
    if (row < next || row >= rows_) {
      throw std::invalid_argument(
          "FeatureTable::fitExtractor: training rows must ascend within the "
          "table");
    }
    for (; next < row; ++next) heldOut.push_back(next);
    next = row + 1;
  }
  for (; next < rows_; ++next) heldOut.push_back(next);
  return FeatureExtractor(
      config, identifiers_.fit(heldOut, config.identifierVocabulary),
      bigrams_.fit(heldOut, config.bigramVocabulary));
}

void FeatureTable::forEachRow(const FeatureExtractor& extractor,
                              const std::vector<std::size_t>& rows,
                              const RowVisitor& visit) const {
  const ExtractorConfig& config = extractor.config();
  const std::size_t identifierWidth = extractor.identifierVocabulary().size();
  const std::size_t bigramWidth = extractor.bigramVocabulary().size();
  const std::vector<std::int32_t> identifierColumns =
      identifiers_.columnsOf(extractor.identifierVocabulary());
  const std::vector<std::int32_t> bigramColumns =
      bigrams_.columnsOf(extractor.bigramVocabulary());

  const auto familyWidth = [&](FeatureFamily family) {
    const auto f = static_cast<std::size_t>(family);
    return fixedStart_[f + 1] - fixedStart_[f];
  };
  const std::size_t width =
      (config.useLexical ? familyWidth(FeatureFamily::Lexical) + identifierWidth
                         : 0) +
      (config.useLayout ? familyWidth(FeatureFamily::Layout) : 0) +
      (config.useSyntactic ? familyWidth(FeatureFamily::Syntactic) + bigramWidth
                           : 0);
  if (!rows.empty() && width != extractor.dimension()) {
    throw std::invalid_argument(
        "FeatureTable::project: extractor schema does not match the table");
  }

  std::vector<double> vec(extractor.dimension());
  for (const std::size_t row : rows) {
    if (row >= rows_) {
      throw std::out_of_range("FeatureTable::project: row out of range");
    }
    // Schema order (FeatureExtractor::buildSchema): lexical fixed, unigram
    // terms, layout, syntactic fixed, bigram terms.
    std::fill(vec.begin(), vec.end(), 0.0);
    const double* fixed = fixed_.data() + row * fixedStart_[3];
    double* at = vec.data();
    const auto copyFamily = [&](FeatureFamily family) {
      const std::size_t start = fixedStart_[static_cast<std::size_t>(family)];
      std::copy_n(fixed + start, familyWidth(family), at);
      at += familyWidth(family);
    };
    if (config.useLexical) {
      copyFamily(FeatureFamily::Lexical);
      identifiers_.project(row, identifierColumns, at);
      at += identifierWidth;
    }
    if (config.useLayout) copyFamily(FeatureFamily::Layout);
    if (config.useSyntactic) {
      copyFamily(FeatureFamily::Syntactic);
      bigrams_.project(row, bigramColumns, at);
      at += bigramWidth;
    }
    visit(vec);
  }
}

std::vector<std::vector<double>> FeatureTable::project(
    const FeatureExtractor& extractor, const std::vector<std::size_t>& rows,
    const FeatureSelector& selector) const {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  forEachRow(extractor, rows, [&](std::span<const double> row) {
    out.push_back(selector.apply(row));
  });
  return out;
}

}  // namespace sca::features
