// Private to the features library: the per-source half of feature
// extraction that FeatureExtractor::fit and FeatureTable share.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "features/table.hpp"

namespace sca::features::detail {

/// What a source contributes to every fold: the fixed columns of each
/// family, in schema order, and its identifier-term and statement-bigram
/// bags.
struct SourceFeatures {
  std::array<std::vector<double>, 3> fixed;  // indexed by FeatureFamily
  TermBag identifiers;
  TermBag bigrams;
};

/// One analysis-cache lookup of `source`. The fixed columns are computed
/// only when `withFixed` is set.
[[nodiscard]] SourceFeatures extractSource(const std::string& source,
                                           bool withFixed);

}  // namespace sca::features::detail
