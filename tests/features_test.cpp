#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ast/parser.hpp"
#include "ast/visit.hpp"
#include "corpus/dataset.hpp"
#include "features/extractor.hpp"
#include "features/selection.hpp"
#include "features/table.hpp"
#include "features/vocabulary.hpp"

namespace sca::features {
namespace {

const std::string kSampleA =
    "#include <iostream>\nusing namespace std;\n"
    "int main() {\n    int numCases;\n    cin >> numCases;\n"
    "    for (int i = 0; i < numCases; i++) {\n"
    "        cout << i << \"\\n\";\n    }\n    return 0;\n}\n";

const std::string kSampleB =
    "#include <cstdio>\nint main()\n{\n\tint num_cases;\n"
    "\tscanf(\"%d\", &num_cases);\n\tint i = 0;\n"
    "\twhile (i < num_cases)\n\t{\n\t\tprintf(\"%d\\n\", i);\n\t\ti++;\n"
    "\t}\n\treturn 0;\n}\n";

// ------------------------------------------------------------ vocabulary --

TEST(Vocabulary, TopTermsByDocumentFrequency) {
  const std::vector<std::vector<std::string>> docs = {
      {"num", "cases", "num"}, {"num", "time"}, {"time", "cases"}};
  const Vocabulary vocab = Vocabulary::fit(docs, 2);
  EXPECT_EQ(vocab.size(), 2u);
  // "cases" and "num" tie with "time" at 2 docs each; alphabetic tiebreak
  // keeps fitting deterministic.
  EXPECT_TRUE(vocab.indexOf("cases").has_value());
  EXPECT_TRUE(vocab.indexOf("num").has_value());
  EXPECT_FALSE(vocab.indexOf("time").has_value());
}

TEST(Vocabulary, VectorizeIsL1NormalizedTermFrequency) {
  const std::vector<std::vector<std::string>> docs = {{"a"}, {"b"}};
  const Vocabulary vocab = Vocabulary::fit(docs, 10);
  const auto vec = vocab.vectorize({"a", "a", "b", "zzz"});
  double sum = 0.0;
  for (const double v : vec) sum += v;
  EXPECT_NEAR(sum, 0.75, 1e-9);  // zzz out of vocabulary
  EXPECT_NEAR(vec[*vocab.indexOf("a")], 0.5, 1e-9);
}

TEST(Vocabulary, EmptyDocumentYieldsZeros) {
  const Vocabulary vocab = Vocabulary::fit({{"x"}}, 4);
  for (const double v : vocab.vectorize({})) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(IdentifierTerms, SplitsTokensIntoWords) {
  const auto terms = identifierTerms("int numTestCases = maxTime;");
  EXPECT_NE(std::find(terms.begin(), terms.end(), "num"), terms.end());
  EXPECT_NE(std::find(terms.begin(), terms.end(), "cases"), terms.end());
  EXPECT_NE(std::find(terms.begin(), terms.end(), "max"), terms.end());
}

// ------------------------------------------------------------- extractor --

TEST(Extractor, DimensionMatchesNamesAndFamilies) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  EXPECT_GT(ex.dimension(), 80u);
  EXPECT_EQ(ex.featureNames().size(), ex.dimension());
  EXPECT_EQ(ex.featureFamilies().size(), ex.dimension());
  const auto vec = ex.transform(kSampleA);
  EXPECT_EQ(vec.size(), ex.dimension());
}

TEST(Extractor, ValuesAreFiniteAndMostlyBounded) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  for (const std::string& src : {kSampleA, kSampleB}) {
    for (const double v : ex.transform(src)) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 16.0);
    }
  }
}

TEST(Extractor, DistinguishesLayoutStyles) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  const auto a = ex.transform(kSampleA);
  const auto b = ex.transform(kSampleB);
  double distance = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    distance += std::fabs(a[i] - b[i]);
  }
  EXPECT_GT(distance, 0.5);
}

TEST(Extractor, TransformIsDeterministic) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  EXPECT_EQ(ex.transform(kSampleA), ex.transform(kSampleA));
}

TEST(Extractor, FamilySwitchesControlSchema) {
  ExtractorConfig lexOnly;
  lexOnly.useLayout = false;
  lexOnly.useSyntactic = false;
  FeatureExtractor ex(lexOnly);
  ex.fit({kSampleA});
  for (const FeatureFamily family : ex.featureFamilies()) {
    EXPECT_EQ(family, FeatureFamily::Lexical);
  }
  ExtractorConfig layoutOnly;
  layoutOnly.useLexical = false;
  layoutOnly.useSyntactic = false;
  FeatureExtractor ex2(layoutOnly);
  ex2.fit({kSampleA});
  EXPECT_EQ(ex2.featureFamilies().size(), 16u);
}

TEST(Extractor, KeywordColumnsReflectUsage) {
  FeatureExtractor ex;
  ex.fit({kSampleA, kSampleB});
  const auto& names = ex.featureNames();
  const auto a = ex.transform(kSampleA);
  const auto b = ex.transform(kSampleB);
  const auto col = [&](const std::string& name) {
    const auto it = std::find(names.begin(), names.end(), name);
    EXPECT_NE(it, names.end()) << name;
    return static_cast<std::size_t>(it - names.begin());
  };
  EXPECT_GT(a[col("kw:for")], 0.0);
  EXPECT_DOUBLE_EQ(b[col("kw:for")], 0.0);
  EXPECT_GT(b[col("kw:while")], 0.0);
  EXPECT_GT(b[col("lay:tab-indent-ratio")], 0.9);
  EXPECT_DOUBLE_EQ(a[col("lay:tab-indent-ratio")], 0.0);
  EXPECT_GT(b[col("lay:allman-ratio")], 0.5);
}

TEST(Extractor, HandlesGarbageInput) {
  FeatureExtractor ex;
  ex.fit({kSampleA});
  const auto vec = ex.transform("not really c++ @@@ ;;");
  EXPECT_EQ(vec.size(), ex.dimension());
  for (const double v : vec) EXPECT_TRUE(std::isfinite(v));
}

TEST(Extractor, EmptyInputSafe) {
  FeatureExtractor ex;
  ex.fit({kSampleA});
  const auto vec = ex.transform("");
  EXPECT_EQ(vec.size(), ex.dimension());
}

// -------------------------------------------------------------- selection --

TEST(Selection, PicksTheInformativeFeature) {
  // Feature 0 separates classes perfectly, feature 1 is constant,
  // feature 2 is noise-ish.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    x.push_back({label == 0 ? 0.0 : 1.0, 5.0, (i % 3) * 0.1});
    y.push_back(label);
  }
  FeatureSelector sel;
  sel.fit(x, y, 1);
  ASSERT_EQ(sel.selected().size(), 1u);
  EXPECT_EQ(sel.selected()[0], 0u);
  EXPECT_GT(sel.gains()[0], sel.gains()[2]);
  EXPECT_DOUBLE_EQ(sel.gains()[1], 0.0);
}

TEST(Selection, IdentityWhenKCoversAll) {
  std::vector<std::vector<double>> x = {{1, 2}, {3, 4}};
  std::vector<int> y = {0, 1};
  FeatureSelector sel;
  sel.fit(x, y, 10);
  EXPECT_TRUE(sel.identity());
  EXPECT_EQ(sel.apply({7, 8}), (std::vector<double>{7, 8}));
}

TEST(Selection, ApplyProjectsInGainOrder) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 20; ++i) {
    const int label = i % 2;
    // feature 1 is perfect, feature 0 constant.
    x.push_back({1.0, label == 0 ? 0.0 : 1.0, 0.5});
    y.push_back(label);
  }
  FeatureSelector sel;
  sel.fit(x, y, 2);
  ASSERT_EQ(sel.selected().size(), 2u);
  EXPECT_EQ(sel.selected()[0], 1u);
  const auto projected = sel.apply({10, 20, 30});
  EXPECT_EQ(projected[0], 20);
}

TEST(Vocabulary, FromTermsRoundTrip) {
  const Vocabulary built = Vocabulary::fromTerms({"beta", "alpha", "gamma"});
  EXPECT_EQ(built.size(), 3u);
  EXPECT_EQ(*built.indexOf("beta"), 0u);
  EXPECT_EQ(*built.indexOf("gamma"), 2u);
  EXPECT_FALSE(built.indexOf("delta").has_value());
  // vectorize honours the explicit ordering
  const auto vec = built.vectorize({"gamma", "gamma"});
  EXPECT_DOUBLE_EQ(vec[2], 1.0);
}

TEST(Extractor, RebuiltFromVocabulariesMatchesOriginal) {
  FeatureExtractor fitted;
  fitted.fit({kSampleA, kSampleB});
  FeatureExtractor rebuilt(fitted.config(), fitted.identifierVocabulary(),
                           fitted.bigramVocabulary());
  EXPECT_EQ(rebuilt.dimension(), fitted.dimension());
  EXPECT_EQ(rebuilt.transform(kSampleA), fitted.transform(kSampleA));
  EXPECT_EQ(rebuilt.transform(kSampleB), fitted.transform(kSampleB));
}

TEST(Selection, FromIndicesProjects) {
  const FeatureSelector sel = FeatureSelector::fromIndices({2, 0});
  EXPECT_FALSE(sel.identity());
  EXPECT_EQ(sel.apply({10, 20, 30}), (std::vector<double>{30, 10}));
}

TEST(Selection, LabelEntropy) {
  EXPECT_DOUBLE_EQ(labelEntropy({1, 1, 1}), 0.0);
  EXPECT_NEAR(labelEntropy({0, 1}), std::log(2.0), 1e-9);
}

TEST(Selection, MeanIsSummedInRowOrder) {
  // Summed in row order the first column's mean is 0.2 / 4 (1 + 1e16
  // rounds to 1e16), so 0.2 lies above it; summed backwards it is 1 / 4
  // and 0.2 would fall below, splitting the labels evenly (zero gain).
  const std::vector<std::vector<double>> x = {
      {1.0, 0.0}, {1e16, 0.0}, {-1e16, 0.0}, {0.2, 0.0}};
  FeatureSelector sel;
  sel.fit(x, {0, 1, 0, 1}, 1);
  const double third = 1.0 / 3.0;
  const double aboveEntropy =
      -(third * std::log(third) + (2 * third) * std::log(2 * third));
  EXPECT_NEAR(sel.gains()[0], std::log(2.0) - 0.75 * aboveEntropy, 1e-12);
}

TEST(Selection, RejectsNegativeLabels) {
  const std::vector<std::vector<double>> x = {{1, 2}, {3, 4}, {5, 6}};
  FeatureSelector sel;
  EXPECT_THROW(sel.fit(x, {0, -1, 1}, 1), std::invalid_argument);
  EXPECT_THROW(sel.fit(x, {0, 1}, 1), std::invalid_argument);
  EXPECT_THROW((void)labelEntropy({2, -3}), std::invalid_argument);
}

// --------------------------------------------------------- feature table --

/// A small corpus plus the awkward cases: an empty source, one without
/// identifiers, garbage, and two documents whose terms tie.
std::vector<std::string> tableCorpus() {
  std::vector<std::string> sources;
  const corpus::YearDataset ds = corpus::buildYearDataset(2017, 3);
  for (const corpus::CodeSample& s : ds.samples) sources.push_back(s.source);
  sources.push_back("");
  sources.push_back("{ return 1 + 2; }");
  sources.push_back("not really c++ @@@ ;; }}} (( \x01 #");
  sources.push_back("int alpha; int beta;");
  sources.push_back("int beta; int alpha;");
  sources.push_back(kSampleA);
  sources.push_back(kSampleB);
  return sources;
}

std::vector<std::string> bigramsOf(const std::string& source) {
  return ast::stmtKindBigrams(ast::parse(source).unit);
}

/// The extractor a fold of `table` fits and the rows it projects must be
/// the ones FeatureExtractor::fit/transform give on the fold's sources.
void expectFoldMatchesExtractor(const FeatureTable& table,
                                const std::vector<std::string>& sources,
                                const ExtractorConfig& config,
                                const std::vector<std::size_t>& train,
                                const std::vector<std::size_t>& test) {
  std::vector<std::string> trainSources;
  std::vector<std::vector<std::string>> identifierDocs, bigramDocs;
  for (const std::size_t row : train) {
    trainSources.push_back(sources[row]);
    identifierDocs.push_back(identifierTerms(sources[row]));
    bigramDocs.push_back(bigramsOf(sources[row]));
  }
  const FeatureExtractor fold = table.fitExtractor(config, train);
  EXPECT_EQ(fold.identifierVocabulary().terms(),
            Vocabulary::fit(identifierDocs, config.identifierVocabulary)
                .terms());
  EXPECT_EQ(fold.bigramVocabulary().terms(),
            Vocabulary::fit(bigramDocs, config.bigramVocabulary).terms());
  FeatureExtractor fitted(config);
  fitted.fit(trainSources);
  EXPECT_EQ(fold.featureNames(), fitted.featureNames());

  for (const std::vector<std::size_t>* rows : {&train, &test}) {
    const std::vector<std::vector<double>> projected =
        table.project(fold, *rows);
    ASSERT_EQ(projected.size(), rows->size());
    for (std::size_t k = 0; k < rows->size(); ++k) {
      const std::vector<double> expected =
          fold.transform(sources[(*rows)[k]]);
      ASSERT_EQ(projected[k].size(), expected.size());
      EXPECT_EQ(std::memcmp(projected[k].data(), expected.data(),
                            expected.size() * sizeof(double)),
                0)
          << "row " << (*rows)[k];
    }
  }
}

/// Leave-one-group-out folds over `groups` groups (row i in group
/// i % groups), plus the all-rows view with nothing held out.
void expectTableMatchesExtractor(const ExtractorConfig& config,
                                 std::size_t groups) {
  const std::vector<std::string> sources = tableCorpus();
  const FeatureTable table(sources);
  ASSERT_EQ(table.rows(), sources.size());
  for (std::size_t held = 0; held < groups; ++held) {
    std::vector<std::size_t> train, test;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      (i % groups == held ? test : train).push_back(i);
    }
    expectFoldMatchesExtractor(table, sources, config, train, test);
  }
  std::vector<std::size_t> all(sources.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  expectFoldMatchesExtractor(table, sources, config, all, {});
}

TEST(FeatureTable, FoldsMatchFitAndTransform) {
  expectTableMatchesExtractor(ExtractorConfig{}, 4);
}

TEST(FeatureTable, TiesAtTheVocabularyCutoff) {
  ExtractorConfig narrow;
  narrow.identifierVocabulary = 3;
  narrow.bigramVocabulary = 2;
  expectTableMatchesExtractor(narrow, 5);

  // alpha and beta tie on document frequency; the name breaks the tie.
  ExtractorConfig one;
  one.identifierVocabulary = 1;
  const FeatureTable table(
      std::vector<std::string>{"int beta; int alpha;", "int alpha, beta;"});
  EXPECT_EQ(table.fitExtractor(one, {0, 1}).identifierVocabulary().terms(),
            std::vector<std::string>{"alpha"});
}

TEST(FeatureTable, VocabularyLargerThanTheDictionary) {
  ExtractorConfig wide;
  wide.identifierVocabulary = 100000;
  wide.bigramVocabulary = 100000;
  expectTableMatchesExtractor(wide, 3);
}

TEST(FeatureTable, EachFamilySwitchOff) {
  for (int off = 0; off < 3; ++off) {
    ExtractorConfig config;
    config.useLexical = off != 0;
    config.useLayout = off != 1;
    config.useSyntactic = off != 2;
    SCOPED_TRACE(off);
    expectTableMatchesExtractor(config, 3);
  }
}

TEST(FeatureTable, RejectsMalformedRows) {
  const FeatureTable table(std::vector<std::string>{kSampleA, kSampleB});
  const ExtractorConfig config;
  EXPECT_THROW((void)table.fitExtractor(config, {1, 0}), std::invalid_argument);
  EXPECT_THROW((void)table.fitExtractor(config, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)table.fitExtractor(config, {2}), std::invalid_argument);
  const FeatureExtractor fitted = table.fitExtractor(config, {0});
  EXPECT_THROW((void)table.project(fitted, {2}), std::out_of_range);
}

// -------------------------------------------------------- analysis cache --

TEST(AnalysisCache, CountsHitsMissesAndEntries) {
  // The counters are process-global and monotonic, so every check is a
  // delta from a snapshot; entries is the resident count.
  clearAnalysisCache();
  const AnalysisCacheStats before = analysisCacheStats();
  EXPECT_EQ(before.entries, 0u);

  FeatureExtractor extractor;
  extractor.fit({kSampleA});  // first analysis of kSampleA: one miss
  const AnalysisCacheStats afterFit = analysisCacheStats();
  EXPECT_EQ(afterFit.misses - before.misses, 1u);
  EXPECT_EQ(afterFit.entries, 1u);

  (void)extractor.transform(kSampleA);  // same content: a hit, no new entry
  const AnalysisCacheStats afterHit = analysisCacheStats();
  EXPECT_EQ(afterHit.hits - afterFit.hits, 1u);
  EXPECT_EQ(afterHit.misses, afterFit.misses);
  EXPECT_EQ(afterHit.entries, 1u);

  (void)extractor.transform(kSampleB);  // new content: a miss, new entry
  const AnalysisCacheStats afterMiss = analysisCacheStats();
  EXPECT_EQ(afterMiss.hits, afterHit.hits);
  EXPECT_EQ(afterMiss.misses - afterHit.misses, 1u);
  EXPECT_EQ(afterMiss.entries, 2u);

  clearAnalysisCache();  // drops entries, never the counts
  const AnalysisCacheStats cleared = analysisCacheStats();
  EXPECT_EQ(cleared.hits, afterMiss.hits);
  EXPECT_EQ(cleared.misses, afterMiss.misses);
  EXPECT_EQ(cleared.entries, 0u);
}

TEST(AnalysisCache, DiffAcrossAClearCountsExactlyTheLookupsMade) {
  FeatureExtractor extractor;
  extractor.fit({kSampleA});
  (void)extractor.transform(kSampleA);  // resident before the snapshot

  const AnalysisCacheStats before = analysisCacheStats();
  (void)extractor.transform(kSampleA);  // hit
  clearAnalysisCache();
  (void)extractor.transform(kSampleA);  // miss: the clear dropped it
  (void)extractor.transform(kSampleA);  // hit
  (void)extractor.transform(kSampleB);  // miss
  const AnalysisCacheStats after = analysisCacheStats();

  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.entries, 2u);
}

TEST(AnalysisCache, WarmCacheIsTransparent) {
  FeatureExtractor extractor;
  extractor.fit({kSampleA, kSampleB});
  clearAnalysisCache();
  const std::vector<double> cold = extractor.transform(kSampleA);
  const std::vector<double> warm = extractor.transform(kSampleA);
  EXPECT_EQ(cold, warm);
  // A second extractor with different vocabularies shares the cache yet
  // projects its own features — cached analyses are extractor-independent.
  ExtractorConfig narrow;
  narrow.identifierVocabulary = 5;
  narrow.bigramVocabulary = 3;
  FeatureExtractor other(narrow);
  other.fit({kSampleB});
  EXPECT_EQ(other.transform(kSampleA), other.transform(kSampleA));
  EXPECT_NE(other.dimension(), extractor.dimension());
}

}  // namespace
}  // namespace sca::features
