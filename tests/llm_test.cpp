#include <gtest/gtest.h>

#include <set>

#include "ast/parser.hpp"
#include "ast/visit.hpp"
#include "corpus/dataset.hpp"
#include "llm/archetypes.hpp"
#include "llm/fault_injection.hpp"
#include "llm/pipelines.hpp"
#include "llm/resilient_client.hpp"
#include "llm/synthetic_llm.hpp"
#include "style/archetypes.hpp"
#include "style/infer.hpp"
#include "util/strings.hpp"

namespace sca::llm {
namespace {

LlmOptions optionsFor(int year, std::uint64_t seed) {
  LlmOptions o;
  o.year = year;
  o.seed = seed;
  return o;
}

TEST(Archetypes, PoolHasExactlyTwelveStyles) {
  EXPECT_EQ(archetypePool().size(), kArchetypeCount);
  EXPECT_EQ(archetypePool().size(), 12u);
}

TEST(Archetypes, WeightsNormalizedPerYear) {
  for (const int year : {2017, 2018, 2019}) {
    const auto& w = archetypeWeights(year);
    ASSERT_EQ(w.size(), kArchetypeCount);
    double sum = 0.0;
    for (const double v : w) {
      EXPECT_GT(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  EXPECT_THROW((void)archetypeWeights(2020), std::out_of_range);
}

TEST(Archetypes, YearSkewMatchesPaperShape) {
  // 2017 near-degenerate; 2018 top-3 ~2/3; 2019 top-2 ~0.59.
  EXPECT_GT(archetypeWeights(2017)[0], 0.7);
  const auto& w18 = archetypeWeights(2018);
  EXPECT_NEAR(w18[0] + w18[1] + w18[2], 0.665, 0.05);
  const auto& w19 = archetypeWeights(2019);
  EXPECT_NEAR(w19[0] + w19[1], 0.586, 0.05);
}

TEST(SyntheticLlm, GenerateIsParseableAndDeterministic) {
  const auto& ch = corpus::challengeById("race");
  SyntheticLlm a(optionsFor(2018, 5));
  SyntheticLlm b(optionsFor(2018, 5));
  const std::string s1 = a.generate(ch);
  const std::string s2 = b.generate(ch);
  EXPECT_EQ(s1, s2);
  EXPECT_TRUE(ast::parse(s1).clean);
  EXPECT_EQ(a.callCount(), 1u);
}

TEST(SyntheticLlm, TransformPreservesIoShape) {
  const auto& ch = corpus::challengeById("pace");
  SyntheticLlm llm(optionsFor(2018, 9));
  const std::string original = llm.generate(ch);
  const ast::ParseResult before = ast::parse(original);
  std::size_t beforeReads = 0, beforeWrites = 0;
  ast::forEachStmt(before.unit, [&](const ast::Stmt& s) {
    if (s.is<ast::ReadStmt>()) ++beforeReads;
    if (s.is<ast::WriteStmt>()) ++beforeWrites;
  });
  for (int i = 0; i < 10; ++i) {
    const std::string transformed = llm.transform(original);
    const ast::ParseResult after = ast::parse(transformed);
    EXPECT_TRUE(after.clean);
    std::size_t reads = 0, writes = 0;
    ast::forEachStmt(after.unit, [&](const ast::Stmt& s) {
      if (s.is<ast::ReadStmt>()) ++reads;
      if (s.is<ast::WriteStmt>()) ++writes;
    });
    EXPECT_EQ(reads, beforeReads) << transformed;
    EXPECT_EQ(writes, beforeWrites) << transformed;
  }
}

TEST(SyntheticLlm, TransformChangesSurfaceText) {
  const auto& ch = corpus::challengeById("votes");
  SyntheticLlm llm(optionsFor(2019, 3));
  const std::string original = llm.generate(ch);
  std::size_t changed = 0;
  for (int i = 0; i < 8; ++i) {
    if (llm.transform(original) != original) ++changed;
  }
  EXPECT_GE(changed, 6u);
}

TEST(SyntheticLlm, BoundedStyleRepertoire) {
  // Any number of generations uses at most the 12 archetypes.
  const auto& ch = corpus::challengeById("budget");
  SyntheticLlm llm(optionsFor(2018, 21));
  std::set<std::size_t> archetypes;
  for (int i = 0; i < 60; ++i) {
    (void)llm.generate(ch);
    archetypes.insert(llm.lastArchetype());
  }
  EXPECT_LE(archetypes.size(), kArchetypeCount);
  EXPECT_GE(archetypes.size(), 3u);  // 2018 weights are spread out
}

TEST(SyntheticLlm, Year2017IsNearDegenerate) {
  const auto& ch = corpus::challengeById("race");
  SyntheticLlm llm(optionsFor(2017, 33));
  std::size_t dominant = 0;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    (void)llm.generate(ch);
    if (llm.lastArchetype() == 0) ++dominant;
  }
  EXPECT_GT(static_cast<double>(dominant) / n, 0.55);
}

TEST(SyntheticLlm, FamiliarInputSticks) {
  // Transforming the LLM's own output should mostly stay in-repertoire
  // near the source archetype; transforming exotic human code should
  // scatter more (Table IV's +N vs ~N asymmetry).
  const auto& ch = corpus::challengeById("race");
  SyntheticLlm gen(optionsFor(2018, 41));
  const std::string own = gen.generate(ch);

  corpus::Author exotic;
  exotic.id = 0;
  exotic.profile.naming = style::NamingConvention::HungarianLite;
  exotic.profile.verbosity = style::Verbosity::Long;
  exotic.profile.useTabs = true;
  exotic.profile.allmanBraces = true;
  exotic.profile.ioStyle = ast::IoStyle::Stdio;
  exotic.profile.spaceAroundOps = false;
  exotic.profile.spaceAfterComma = false;
  const std::string human = corpus::renderSolution(exotic, ch, 2018, 0);

  SyntheticLlm llmOwn(optionsFor(2018, 43));
  SyntheticLlm llmHuman(optionsFor(2018, 43));
  std::set<std::size_t> ownStyles, humanStyles;
  for (int i = 0; i < 25; ++i) {
    (void)llmOwn.transform(own);
    ownStyles.insert(llmOwn.lastArchetype());
    (void)llmHuman.transform(human);
    humanStyles.insert(llmHuman.lastArchetype());
  }
  EXPECT_LE(ownStyles.size(), humanStyles.size());
}

TEST(SyntheticLlm, ConversationStickinessMakesChainsConverge) {
  // Feeding the model's own previous output back (what CT does) almost
  // always keeps the style; fresh NCT calls on the original explore more.
  const auto& ch = corpus::challengeById("pace");
  SyntheticLlm gen(optionsFor(2018, 60));
  const std::string original = gen.generate(ch);

  SyntheticLlm ct(optionsFor(2018, 61));
  std::set<std::size_t> ctStyles;
  std::string current = original;
  for (int i = 0; i < 30; ++i) {
    current = ct.transform(current);
    ctStyles.insert(ct.lastArchetype());
  }
  SyntheticLlm nct(optionsFor(2018, 61));
  std::set<std::size_t> nctStyles;
  for (int i = 0; i < 30; ++i) {
    (void)nct.transform(original);
    nctStyles.insert(nct.lastArchetype());
  }
  EXPECT_LE(ctStyles.size(), nctStyles.size());
  EXPECT_LE(ctStyles.size(), 4u);  // chains absorb quickly
}

TEST(SyntheticLlm, EmissionsCarryTheAccentStatistically) {
  // The accent is a statistical habit (per-emission sloppiness is
  // intentional): each property must hold on the overwhelming majority of
  // emissions, not necessarily all.
  const auto& ch = corpus::challengeById("tidy");  // long enough program
  SyntheticLlm llm(optionsFor(2019, 70));
  const int n = 12;
  int noTabs = 0, noBits = 0, spaced = 0, commented = 0;
  for (int i = 0; i < n; ++i) {
    const std::string out = llm.generate(ch);
    const style::StyleProfile p = style::inferProfileFromSource(out);
    if (!p.useTabs) ++noTabs;
    if (!p.useBitsHeader) ++noBits;
    if (p.spaceAroundOps) ++spaced;
    if (p.commentDensity > 0.0) ++commented;
  }
  EXPECT_GE(noTabs, n - 2);
  EXPECT_GE(noBits, n - 2);
  EXPECT_GE(spaced, n - 2);
  EXPECT_GE(commented, n - 3);
}

TEST(SyntheticLlm, LastWasStayReflectsPath) {
  const auto& ch = corpus::challengeById("race");
  SyntheticLlm llm(optionsFor(2017, 80));
  (void)llm.generate(ch);
  EXPECT_FALSE(llm.lastWasStay());
  // Chained input == last output: overwhelmingly a stay.
  std::string current = llm.generate(ch);
  int stays = 0;
  for (int i = 0; i < 20; ++i) {
    current = llm.transform(current);
    if (llm.lastWasStay()) ++stays;
  }
  EXPECT_GE(stays, 16);
}

TEST(Pipelines, HumanAuthorPickFollowsYearRegime) {
  // 2017 picks an archetype-familiar author; 2018/2019 pick distant ones.
  const corpus::YearDataset y2017 = corpus::buildYearDataset(2017, 204);
  const corpus::YearDataset y2018 = corpus::buildYearDataset(2018, 204);
  const TransformedDataset t2017 = buildTransformedDataset(y2017, 1);
  const TransformedDataset t2018 = buildTransformedDataset(y2018, 1);
  const double d2017 = style::nearestArchetype(
      y2017.authors[static_cast<std::size_t>(t2017.humanAuthorId)].profile)
      .distance;
  const double d2018 = style::nearestArchetype(
      y2018.authors[static_cast<std::size_t>(t2018.humanAuthorId)].profile)
      .distance;
  EXPECT_LT(d2017, d2018);
}

TEST(Pipelines, SettingLabels) {
  EXPECT_EQ(settingLabel(Setting::ChatGptNct), "+N");
  EXPECT_EQ(settingLabel(Setting::HumanCt), "~C");
  EXPECT_EQ(allSettings().size(), 4u);
}

TEST(Pipelines, NctAlwaysRestartsFromOriginal) {
  const auto& ch = corpus::challengeById("steps");
  SyntheticLlm gen(optionsFor(2018, 50));
  const std::string original = gen.generate(ch);
  SyntheticLlm llm(optionsFor(2018, 51));
  const auto outputs = nonChainingTransform(llm, original, 6);
  ASSERT_EQ(outputs.size(), 6u);
  for (const std::string& out : outputs) {
    EXPECT_TRUE(ast::parse(out).clean);
  }
}

TEST(Pipelines, CtChainsOutputs) {
  const auto& ch = corpus::challengeById("steps");
  SyntheticLlm gen(optionsFor(2019, 52));
  const std::string original = gen.generate(ch);
  SyntheticLlm llm(optionsFor(2019, 53));
  const auto outputs = chainingTransform(llm, original, 6);
  ASSERT_EQ(outputs.size(), 6u);
  for (const std::string& out : outputs) {
    EXPECT_TRUE(ast::parse(out).clean);
  }
  EXPECT_EQ(llm.callCount(), 6u);
}

TEST(Pipelines, TransformedDatasetShapeMatchesTableTwo) {
  const corpus::YearDataset year = corpus::buildYearDataset(2017, 8);
  const TransformedDataset ds = buildTransformedDataset(year, 5);
  EXPECT_EQ(ds.year, 2017);
  EXPECT_EQ(ds.chatgptOriginals.size(), 8u);
  EXPECT_EQ(ds.humanOriginals.size(), 8u);
  // 4 settings x 5 steps x 8 challenges
  EXPECT_EQ(ds.samples.size(), 4u * 5u * 8u);
  EXPECT_GE(ds.humanAuthorId, 0);
  EXPECT_LT(ds.humanAuthorId, 8);
  std::size_t perSetting[4] = {0, 0, 0, 0};
  for (const TransformedSample& sample : ds.samples) {
    ++perSetting[static_cast<int>(sample.setting)];
    EXPECT_GE(sample.step, 1);
    EXPECT_LE(sample.step, 5);
  }
  for (const std::size_t count : perSetting) EXPECT_EQ(count, 40u);
}

TEST(Pipelines, TransformedDatasetDeterministic) {
  const corpus::YearDataset year = corpus::buildYearDataset(2018, 4);
  const TransformedDataset a = buildTransformedDataset(year, 3);
  const TransformedDataset b = buildTransformedDataset(year, 3);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].source, b.samples[i].source);
  }
}

// Golden pins on the model's output bytes, recorded before the model kept
// any state derived from its inputs. Every transformed sample of Tables
// II-X comes out of these paths, so a change to how `transform` parses,
// fingerprints or profiles its input that moves one byte shows up here.

/// Every sample of a 16-author, 40-step dataset (8 challenges x 4
/// settings): long enough for NCT to reach the familiar and the exploring
/// branches and for CT to reach the conversation branch on both origins.
std::string datasetHash(int year) {
  const corpus::YearDataset data = corpus::buildYearDataset(year, 16);
  BuildOptions options;
  options.steps = 40;
  const TransformedDataset ds = buildTransformedDataset(data, options);
  std::uint64_t h = util::hash64("dataset");
  for (const TransformedSample& sample : ds.samples) {
    h = util::combine64(h, util::hash64(sample.source));
  }
  return util::toHex64(h);
}

TEST(GoldenTransform, Dataset2017) {
  EXPECT_EQ(datasetHash(2017), "7a2378bd535d70ca");
}

TEST(GoldenTransform, Dataset2018) {
  EXPECT_EQ(datasetHash(2018), "92a561ff1975461f");
}

/// One model fed A, A, its own last output, B, A, four times over: repeated
/// input, conversation input and a switch between two originals, on the
/// familiar (A is the model's own code) and exploring (B is exotic human
/// code) branches. With `faults`, through the fault-injecting + resilient
/// stack, whose retries recover the model's own completions.
std::string interleavedHash(bool faults) {
  const auto& ch = corpus::challengeById("race");
  SyntheticLlm gen(optionsFor(2018, 90));
  const std::string a = gen.generate(ch);
  corpus::Author exotic;
  exotic.profile.naming = style::NamingConvention::HungarianLite;
  exotic.profile.useTabs = true;
  exotic.profile.allmanBraces = true;
  const std::string b = corpus::renderSolution(exotic, ch, 2018, 0);

  SyntheticLlm llm(optionsFor(2018, 91));
  FaultInjectingClient faulty(llm, FaultOptions::scaled(0.3, 92));
  RetryPolicy retry;
  retry.seed = 93;
  ResilientClient resilient(faulty, retry);
  LlmClient& client = faults ? static_cast<LlmClient&>(resilient) : llm;

  std::uint64_t h = util::hash64("interleaved");
  std::string last;
  for (int round = 0; round < 4; ++round) {
    for (const std::string* input :
         std::initializer_list<const std::string*>{&a, &a, &last, &b, &a}) {
      const util::Result<std::string> out = client.tryTransform(*input);
      EXPECT_TRUE(out.ok()) << out.status().toString();
      if (!out.ok()) continue;
      last = out.value();
      h = util::combine64(h, util::hash64(last));
      h = util::combine64(h, llm.lastArchetype());
      h = util::combine64(h, llm.lastWasStay() ? 1 : 0);
    }
  }
  if (faults) {
    EXPECT_GT(faulty.stats().total(), 0u);
  }
  return util::toHex64(util::combine64(h, llm.callCount()));
}

TEST(GoldenTransform, InterleavedInputs) {
  EXPECT_EQ(interleavedHash(/*faults=*/false), "220964f717696fd1");
}

TEST(GoldenTransform, InterleavedInputsThroughFaultStack) {
  // The retries recover every completion, so the stack changes no byte.
  EXPECT_EQ(interleavedHash(/*faults=*/true), "220964f717696fd1");
}

}  // namespace
}  // namespace sca::llm
