#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "ast/parser.hpp"
#include "ast/render.hpp"
#include "ast/visit.hpp"
#include "corpus/dataset.hpp"
#include "features/extractor.hpp"
#include "lexer/layout.hpp"
#include "ml/matrix.hpp"
#include "util/io.hpp"

namespace sca::corpus {
namespace {

TEST(Challenges, CatalogueHasTwentyDistinctProblems) {
  const auto& all = catalogue();
  EXPECT_EQ(all.size(), 20u);
  std::set<std::string> ids;
  for (const Challenge& ch : all) {
    EXPECT_FALSE(ch.id.empty());
    EXPECT_FALSE(ch.title.empty());
    EXPECT_GT(ch.statement.size(), 40u);
    ids.insert(ch.id);
  }
  EXPECT_EQ(ids.size(), all.size());
}

TEST(Challenges, EveryIrRendersAndParsesCleanly) {
  for (const Challenge& ch : catalogue()) {
    const std::string source = ast::render(ch.ir, ast::RenderOptions{});
    const ast::ParseResult r = ast::parse(source);
    EXPECT_TRUE(r.clean) << ch.id << ":\n" << source;
  }
}

TEST(Challenges, EveryIrHasMainAndCaseOutput) {
  for (const Challenge& ch : catalogue()) {
    bool hasMain = false;
    for (const auto& fn : ch.ir.functions) {
      if (fn.name == "main") hasMain = true;
    }
    EXPECT_TRUE(hasMain) << ch.id;
    const std::string source = ast::render(ch.ir, ast::RenderOptions{});
    EXPECT_NE(source.find("Case #"), std::string::npos) << ch.id;
  }
}

TEST(Challenges, IrsAreNontrivial) {
  for (const Challenge& ch : catalogue()) {
    EXPECT_GE(ast::countStmts(ch.ir), 8u) << ch.id;
    EXPECT_GE(ast::maxStmtDepth(ch.ir), 2u) << ch.id;
  }
}

TEST(Challenges, YearsDrawEightWithOverlap) {
  const auto y2017 = challengesForYear(2017);
  const auto y2018 = challengesForYear(2018);
  const auto y2019 = challengesForYear(2019);
  EXPECT_EQ(y2017.size(), 8u);
  EXPECT_EQ(y2018.size(), 8u);
  EXPECT_EQ(y2019.size(), 8u);
  std::set<const Challenge*> s2017(y2017.begin(), y2017.end());
  std::set<const Challenge*> s2018(y2018.begin(), y2018.end());
  EXPECT_NE(s2017, s2018);  // years differ
}

TEST(Challenges, LookupByIdAndFigure3) {
  EXPECT_EQ(challengeById("race").id, "race");
  EXPECT_THROW((void)challengeById("nope"), std::out_of_range);
  EXPECT_EQ(figure3Challenge().id, "race");
}

TEST(Authors, PopulationDeterministicAndYearDependent) {
  const auto a1 = makeAuthorPopulation(2017, 20);
  const auto a2 = makeAuthorPopulation(2017, 20);
  const auto b = makeAuthorPopulation(2018, 20);
  ASSERT_EQ(a1.size(), 20u);
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        style::StyleProfile::distance(a1[i].profile, a2[i].profile), 0.0);
  }
  // Different year => (almost surely) different profiles somewhere.
  double totalDistance = 0.0;
  for (std::size_t i = 0; i < a1.size(); ++i) {
    totalDistance += style::StyleProfile::distance(a1[i].profile, b[i].profile);
  }
  EXPECT_GT(totalDistance, 0.5);
}

TEST(Authors, NamesFollowPaperConvention) {
  const auto authors = makeAuthorPopulation(2019, 3);
  EXPECT_EQ(authors[0].name, "A0");
  EXPECT_EQ(authors[2].name, "A2");
}

TEST(Dataset, ShapeMatchesTableOne) {
  // Scaled-down shape check: authors x challenges samples.
  const YearDataset ds = buildYearDataset(2017, 12);
  EXPECT_EQ(ds.authors.size(), 12u);
  EXPECT_EQ(ds.challenges.size(), 8u);
  EXPECT_EQ(ds.samples.size(), 96u);
}

TEST(Dataset, SamplesParseCleanAndCarryProvenance) {
  const YearDataset ds = buildYearDataset(2018, 6);
  for (const CodeSample& sample : ds.samples) {
    EXPECT_EQ(sample.origin, "human");
    EXPECT_GE(sample.authorId, 0);
    EXPECT_LT(sample.authorId, 6);
    EXPECT_TRUE(ast::parse(sample.source).clean);
  }
}

TEST(Dataset, RenderSolutionDeterministic) {
  const auto authors = makeAuthorPopulation(2017, 2);
  const auto& ch = challengeById("race");
  EXPECT_EQ(renderSolution(authors[0], ch, 2017, 0),
            renderSolution(authors[0], ch, 2017, 0));
  EXPECT_NE(renderSolution(authors[0], ch, 2017, 0),
            renderSolution(authors[1], ch, 2017, 0));
}

TEST(Dataset, AuthorStyleConsistentAcrossChallenges) {
  // The same author's solutions to different challenges share their layout
  // dimensions in aggregate (a small per-sample wobble is intentional —
  // real authors are not machines).
  const auto authors = makeAuthorPopulation(2019, 1);
  const auto challenges = challengesForYear(2019);
  const style::StyleProfile& p = authors[0].profile;
  std::size_t braceMatches = 0;
  std::size_t tabMatches = 0;
  for (std::size_t c = 0; c < challenges.size(); ++c) {
    const std::string src =
        renderSolution(authors[0], *challenges[c], 2019, static_cast<int>(c));
    const auto layout = lexer::computeLayoutMetrics(src);
    if ((layout.tabIndentRatio() > 0.5) == p.useTabs) ++tabMatches;
    if ((layout.allmanBraceRatio() > 0.5) == p.allmanBraces) ++braceMatches;
  }
  EXPECT_GE(tabMatches, challenges.size() - 2);
  EXPECT_GE(braceMatches, challenges.size() - 2);
}

// ----------------------------------------------------- out-of-core scale

std::string scaleDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("sca_scale_" + name))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Extractor fitted the way macro_scale fits it: on the first authors'
/// rendered solutions.
features::FeatureExtractor fittedExtractor(int year, std::size_t authors) {
  const auto population = makeAuthorPopulation(year, authors);
  const auto challenges = challengesForYear(year);
  std::vector<std::string> sources;
  for (const Author& author : population) {
    for (std::size_t c = 0; c < challenges.size(); ++c) {
      sources.push_back(
          renderSolution(author, *challenges[c], year, static_cast<int>(c)));
    }
  }
  features::FeatureExtractor extractor;
  extractor.fit(sources);
  return extractor;
}

std::string matrixBytes(const std::string& path) {
  const auto bytes = util::readFile(path);
  EXPECT_TRUE(bytes.ok()) << path;
  return bytes.ok() ? bytes.value() : std::string();
}

TEST(ScaleMatrix, FinalBytesIndependentOfShardSize) {
  const auto extractor = fittedExtractor(2017, 6);

  ScaleConfig a;
  a.year = 2017;
  a.authorCount = 13;
  a.outDir = scaleDir("shard_a");
  a.shardSize = 4;
  const auto resultA = buildYearMatrix(extractor, a);
  ASSERT_TRUE(resultA.ok()) << resultA.status().toString();
  EXPECT_EQ(resultA.value().shardCount, 4u);
  EXPECT_EQ(resultA.value().freshShards, 4u);

  ScaleConfig b = a;
  b.outDir = scaleDir("shard_b");
  b.shardSize = 13;  // single shard
  const auto resultB = buildYearMatrix(extractor, b);
  ASSERT_TRUE(resultB.ok());
  EXPECT_EQ(resultB.value().shardCount, 1u);

  EXPECT_EQ(matrixBytes(resultA.value().matrixPath),
            matrixBytes(resultB.value().matrixPath));

  // Segments are checkpoints, not products: gone after the merge.
  std::size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(a.outDir)) {
    if (entry.path().filename().string().starts_with("seg_")) ++segments;
  }
  EXPECT_EQ(segments, 0u);
}

TEST(ScaleMatrix, CrashAndResumeReproducesUninterruptedBytes) {
  const auto extractor = fittedExtractor(2017, 6);

  ScaleConfig clean;
  clean.year = 2017;
  clean.authorCount = 12;
  clean.outDir = scaleDir("crash_clean");
  clean.shardSize = 3;
  const auto uninterrupted = buildYearMatrix(extractor, clean);
  ASSERT_TRUE(uninterrupted.ok());

  ScaleConfig crashing = clean;
  crashing.outDir = scaleDir("crash_resume");
  crashing.crashAfterShards = 2;
  const auto crashed = buildYearMatrix(extractor, crashing);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), util::StatusCode::kInternal);

  // The crash left whole segments behind — and only whole ones.
  std::size_t segments = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(crashing.outDir)) {
    if (entry.path().filename().string().starts_with("seg_")) ++segments;
  }
  // The flag is checked between shards, so in-flight shards may still
  // finish: anywhere from crashAfterShards to all 4 segments can exist.
  EXPECT_GE(segments, crashing.crashAfterShards);
  EXPECT_LE(segments, 4u);

  ScaleConfig resume = crashing;
  resume.crashAfterShards = 0;
  const auto resumed = buildYearMatrix(extractor, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
  EXPECT_EQ(resumed.value().resumedShards, segments);
  EXPECT_EQ(resumed.value().freshShards, 4u - segments);

  EXPECT_EQ(matrixBytes(resumed.value().matrixPath),
            matrixBytes(uninterrupted.value().matrixPath));

  // A third call short-circuits on the finished final matrix.
  const auto reused = buildYearMatrix(extractor, resume);
  ASSERT_TRUE(reused.ok());
  EXPECT_TRUE(reused.value().reusedFinal);
  EXPECT_EQ(reused.value().freshShards, 0u);
}

TEST(ScaleMatrix, MetaHashPinsExtractorSchemaAndShape) {
  const auto extractor = fittedExtractor(2017, 6);

  ScaleConfig config;
  config.year = 2017;
  config.authorCount = 5;
  config.outDir = scaleDir("meta");
  config.shardSize = 5;
  const auto result = buildYearMatrix(extractor, config);
  ASSERT_TRUE(result.ok());

  const std::uint64_t pinned =
      yearMatrixMetaHash(extractor, config.year, config.authorCount);
  EXPECT_EQ(result.value().metaHash, pinned);
  EXPECT_TRUE(ml::MatrixFile::open(result.value().matrixPath, pinned).ok());

  // A different cohort size or a differently fitted extractor pins a
  // different hash, so its reader rejects this file.
  EXPECT_NE(yearMatrixMetaHash(extractor, config.year, 6), pinned);
  const auto other = fittedExtractor(2017, 3);
  EXPECT_NE(yearMatrixMetaHash(other, config.year, config.authorCount),
            pinned);
  EXPECT_FALSE(
      ml::MatrixFile::open(
          result.value().matrixPath,
          yearMatrixMetaHash(other, config.year, config.authorCount))
          .ok());

  // Rows land author-major with the labels/groups the contract promises.
  auto opened = ml::MatrixFile::open(result.value().matrixPath, pinned);
  ASSERT_TRUE(opened.ok());
  const auto challenges = challengesForYear(config.year);
  ASSERT_EQ(opened.value().rows(), config.authorCount * challenges.size());
  for (std::size_t i = 0; i < opened.value().rows(); ++i) {
    EXPECT_EQ(opened.value().label(i),
              static_cast<int>(i / challenges.size()));
    EXPECT_EQ(opened.value().group(i),
              static_cast<int>(i % challenges.size()));
  }

  // And the row contents are exactly the uncached extractor's output.
  const auto population =
      makeAuthorPopulation(config.year, config.authorCount);
  const std::vector<double> expected = extractor.transformUncached(
      renderSolution(population[2], *challenges[1], config.year, 1));
  const auto row = opened.value().row(2 * challenges.size() + 1);
  ASSERT_EQ(row.size(), expected.size());
  for (std::size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(row[j], expected[j]);
  }
}

}  // namespace
}  // namespace sca::corpus
