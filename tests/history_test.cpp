#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/history.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "runtime/timer.hpp"
#include "util/io.hpp"

namespace sca::obs {
namespace {

HistoryRecord makeRecord(const std::string& bench, double totalSeconds,
                         const std::string& digest = "00000000000000aa",
                         std::uint64_t threads = 4) {
  HistoryRecord record;
  record.bench = bench;
  record.complete = true;
  record.gitSha = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeef";
  record.threads = threads;
  record.envClass = "SCA_FAULT_RATE=0.05";
  record.digest = digest;
  record.totalSeconds = totalSeconds;
  record.maxRssKb = 51240;
  record.userCpuSeconds = totalSeconds * 0.9;
  record.sysCpuSeconds = 0.01;
  record.unixTime = 1754450000;
  record.phases = {{"corpus_build", totalSeconds * 0.4},
                   {"llm_transform", totalSeconds * 0.6}};
  record.counters = {{"llm_retries", 3}, {"rt_tables", 1}};
  return record;
}

/// TempDir() outlives the test run, and the store is append-only by design
/// — start every store test from a path guaranteed not to exist.
std::string freshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(HistoryRecordTest, JsonRoundTripPreservesEveryField) {
  const HistoryRecord record = makeRecord("micro_pipeline", 1.25);
  const std::string line = historyRecordJson(record);
  HistoryRecord back;
  ASSERT_TRUE(parseHistoryRecord(line, &back));
  EXPECT_EQ(back.bench, record.bench);
  EXPECT_EQ(back.complete, record.complete);
  EXPECT_EQ(back.gitSha, record.gitSha);
  EXPECT_EQ(back.threads, record.threads);
  EXPECT_EQ(back.envClass, record.envClass);
  EXPECT_EQ(back.digest, record.digest);
  EXPECT_DOUBLE_EQ(back.totalSeconds, record.totalSeconds);
  EXPECT_EQ(back.maxRssKb, record.maxRssKb);
  EXPECT_EQ(back.unixTime, record.unixTime);
  EXPECT_EQ(back.phases, record.phases);
  EXPECT_EQ(back.counters, record.counters);
  // Canonical form: serializing the parse reproduces the exact bytes.
  EXPECT_EQ(historyRecordJson(back), line);
}

TEST(HistoryRecordTest, ParseRejectsTornAndForeignLines) {
  const std::string line = historyRecordJson(makeRecord("b", 1.0));
  HistoryRecord out;
  EXPECT_FALSE(parseHistoryRecord(line.substr(0, line.size() / 2), &out));
  EXPECT_FALSE(parseHistoryRecord("{\"foo\":1}", &out));
  EXPECT_FALSE(parseHistoryRecord("", &out));
  EXPECT_FALSE(parseHistoryRecord("not json at all", &out));
}

TEST(HistoryStoreTest, AppendCreatesHeaderAndLoadsBack) {
  HistoryStore store(freshPath("history_roundtrip.jsonl"));
  ASSERT_TRUE(store.append(makeRecord("micro_pipeline", 1.0)).isOk());
  ASSERT_TRUE(store.append(makeRecord("micro_pipeline", 1.1)).isOk());
  const HistoryStore::LoadResult loaded = store.load();
  EXPECT_TRUE(loaded.magicOk);
  EXPECT_EQ(loaded.skippedLines, 0u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.records[0].totalSeconds, 1.0);
  EXPECT_DOUBLE_EQ(loaded.records[1].totalSeconds, 1.1);

  // The first line really is the magic header (crash-safe append relies
  // on it landing before any record).
  const util::Result<std::string> raw = util::readFile(store.path());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.value().rfind("{\"magic\":\"sca-history-v1\"}\n", 0), 0u);
}

TEST(HistoryStoreTest, TornLastLineIsSkippedNotFatal) {
  HistoryStore store(freshPath("history_torn.jsonl"));
  ASSERT_TRUE(store.append(makeRecord("a", 1.0)).isOk());
  ASSERT_TRUE(store.append(makeRecord("a", 2.0)).isOk());

  // Simulate a kill mid-append: chop the final record in half.
  const util::Result<std::string> raw = util::readFile(store.path());
  ASSERT_TRUE(raw.ok());
  std::string torn = raw.value();
  torn.resize(torn.size() - torn.size() / 4);
  ASSERT_TRUE(util::atomicWriteFile(store.path(), torn).isOk());

  const HistoryStore::LoadResult loaded = store.load();
  EXPECT_TRUE(loaded.magicOk);
  EXPECT_EQ(loaded.skippedLines, 1u);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.records[0].totalSeconds, 1.0);
}

TEST(HistoryStoreTest, WrongMagicReadsAsEmpty) {
  const std::string path = ::testing::TempDir() + "history_foreign.jsonl";
  ASSERT_TRUE(util::atomicWriteFile(
                  path, "{\"magic\":\"some-other-format\"}\n" +
                            historyRecordJson(makeRecord("a", 1.0)) + "\n")
                  .isOk());
  const HistoryStore::LoadResult loaded = HistoryStore(path).load();
  EXPECT_FALSE(loaded.magicOk);
  EXPECT_TRUE(loaded.records.empty());
}

TEST(HistoryStoreTest, MissingFileIsEmptyNotError) {
  const HistoryStore::LoadResult loaded =
      HistoryStore(freshPath("history_never_written.jsonl")).load();
  EXPECT_FALSE(loaded.magicOk);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.skippedLines, 0u);
}

TEST(HistoryStoreTest, GcKeepsNewestPerGroupPreservingOrder) {
  HistoryStore store(freshPath("history_gc.jsonl"));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.append(makeRecord("a", 1.0 + i)).isOk());
  }
  ASSERT_TRUE(store.append(makeRecord("b", 9.0)).isOk());

  const util::Result<std::size_t> dropped = store.gc(2);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 3u);

  const HistoryStore::LoadResult loaded = store.load();
  ASSERT_TRUE(loaded.magicOk);
  ASSERT_EQ(loaded.records.size(), 3u);
  // The two newest "a" runs survive, in their original order, then "b".
  EXPECT_DOUBLE_EQ(loaded.records[0].totalSeconds, 4.0);
  EXPECT_DOUBLE_EQ(loaded.records[1].totalSeconds, 5.0);
  EXPECT_EQ(loaded.records[2].bench, "b");
}

// --- regression detector --------------------------------------------------

TEST(HistoryStoreTest, RunRecordCarriesPhasesCountersAndRusage) {
  // The history record is the per-run record: a PhaseTimer scope, a
  // stable and a runtime counter, and the rusage sample all land in it.
  {
    runtime::PhaseTimer timer("history_test_phase");
  }
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.counter("history_test_stable").add(2);
  registry.counter("history_test_runtime", Stability::kRuntime).add(5);
  recordProcessRusage();

  HistoryStore store(freshPath("history_run_record.jsonl"));
  ASSERT_TRUE(appendRunHistory(store, "history_test", 3, true, 0.5).isOk());
  const HistoryStore::LoadResult loaded = store.load();
  ASSERT_EQ(loaded.records.size(), 1u);
  const HistoryRecord& record = loaded.records[0];
  EXPECT_EQ(record.bench, "history_test");
  EXPECT_EQ(record.threads, 3u);
  EXPECT_TRUE(record.complete);
  EXPECT_DOUBLE_EQ(record.totalSeconds, 0.5);
  EXPECT_EQ(record.phases.count("history_test_phase"), 1u);
  // Lifetime values: whatever the process has counted so far.
  EXPECT_EQ(record.counters.at("history_test_stable"),
            registry.counterValue("history_test_stable"));
  EXPECT_EQ(record.counters.at("history_test_runtime"),
            registry.counterValue("history_test_runtime"));
  EXPECT_GE(record.counters.at("history_test_runtime"), 5u);
  EXPECT_GT(record.maxRssKb, 0u);
}

TEST(RegressionTest, IdenticalRunsPass) {
  const std::vector<HistoryRecord> records = {
      makeRecord("a", 1.0), makeRecord("a", 1.0), makeRecord("a", 1.0)};
  const RegressionReport report = checkRegressions(records, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.groupsChecked, 1u);
  EXPECT_EQ(report.groupsSkipped, 0u);
}

TEST(RegressionTest, TwoFoldSlowdownIsFlagged) {
  std::vector<HistoryRecord> records = {
      makeRecord("a", 1.0), makeRecord("a", 1.0), makeRecord("a", 1.0)};
  records.push_back(makeRecord("a", 2.0));  // 2x: well past 1.5x + 0.05 s
  const RegressionReport report = checkRegressions(records, {});
  ASSERT_FALSE(report.ok());
  for (const RegressionFinding& finding : report.findings) {
    EXPECT_EQ(finding.kind, "perf");
    EXPECT_EQ(finding.bench, "a");
    EXPECT_GT(finding.current, finding.baseline);
  }
}

TEST(RegressionTest, NoiseWithinToleranceIsNotFlagged) {
  std::vector<HistoryRecord> records = {
      makeRecord("a", 1.00), makeRecord("a", 0.98), makeRecord("a", 1.02)};
  records.push_back(makeRecord("a", 1.04));  // +4%: inside both gates
  EXPECT_TRUE(checkRegressions(records, {}).ok());
}

TEST(RegressionTest, DigestChangeIsAlwaysFlagged) {
  std::vector<HistoryRecord> records = {makeRecord("a", 1.0),
                                        makeRecord("a", 1.0)};
  // Faster AND different answer: speed never excuses a digest change.
  records.push_back(makeRecord("a", 0.5, "00000000000000bb"));
  const RegressionReport report = checkRegressions(records, {});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, "digest");

  RegressionPolicy lenient;
  lenient.checkDigest = false;
  EXPECT_TRUE(checkRegressions(records, lenient).ok());
}

TEST(RegressionTest, DigestChangeAnywhereInTheWindowIsFlagged) {
  // Three runs agree on A, then three on B: the newest B run matches the
  // record just before it but not the A runs still in the window.
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 3; ++i) records.push_back(makeRecord("a", 1.0));
  for (int i = 0; i < 3; ++i) {
    records.push_back(makeRecord("a", 1.0, "00000000000000bb"));
  }
  const RegressionReport report = checkRegressions(records, {});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, "digest");
  EXPECT_EQ(report.findings[0].detail,
            "stable-metric digest changed 00000000000000aa -> "
            "00000000000000bb");
}

TEST(RegressionTest, PartialRunsAreIgnored) {
  std::vector<HistoryRecord> records = {makeRecord("a", 1.0),
                                        makeRecord("a", 1.0)};
  HistoryRecord crashed = makeRecord("a", 40.0, "00000000000000cc");
  crashed.complete = false;  // hung run that was killed: not evidence
  records.push_back(crashed);
  EXPECT_TRUE(checkRegressions(records, {}).ok());
}

TEST(RegressionTest, DifferentThreadCountsDoNotCompare) {
  const std::vector<HistoryRecord> records = {
      makeRecord("a", 4.0, "00000000000000aa", 1),
      makeRecord("a", 1.0, "00000000000000aa", 8)};
  const RegressionReport report = checkRegressions(records, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.groupsChecked, 0u);
  EXPECT_EQ(report.groupsSkipped, 2u);  // two singleton groups, no baseline
}

TEST(RegressionTest, RssBlowUpIsFlaggedAndNoiseIsNot) {
  std::vector<HistoryRecord> records = {
      makeRecord("a", 1.0), makeRecord("a", 1.0), makeRecord("a", 1.0)};
  // 4x the 51240 KB baseline and far past the absolute floor.
  HistoryRecord bloated = makeRecord("a", 1.0);
  bloated.maxRssKb = 51240 * 4;
  records.push_back(bloated);

  const RegressionReport report = checkRegressions(records, {});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, "rss");
  EXPECT_GT(report.findings[0].current, report.findings[0].baseline);

  // Same ratio on a tiny footprint: relative gate trips but the absolute
  // floor (32 MiB) does not — page-cache noise, not a regression.
  std::vector<HistoryRecord> tiny;
  for (int i = 0; i < 3; ++i) {
    HistoryRecord r = makeRecord("a", 1.0);
    r.maxRssKb = 1000;
    tiny.push_back(r);
  }
  HistoryRecord wobble = makeRecord("a", 1.0);
  wobble.maxRssKb = 4000;
  tiny.push_back(wobble);
  EXPECT_TRUE(checkRegressions(tiny, {}).ok());

  // Records without an RSS sample never baseline and never trigger.
  std::vector<HistoryRecord> unsampled = {makeRecord("a", 1.0),
                                          makeRecord("a", 1.0)};
  unsampled[0].maxRssKb = 0;
  unsampled[1].maxRssKb = 0;
  EXPECT_TRUE(checkRegressions(unsampled, {}).ok());

  // The factor is policy, like the slowdown gate.
  RegressionPolicy lenient;
  lenient.rssFactor = 10.0;
  EXPECT_TRUE(checkRegressions(records, lenient).ok());
}

TEST(RegressionTest, WindowLimitsTheBaseline) {
  // Old slow era, then a fast regime the window's length: the current run
  // must baseline against the recent fast runs, not the ancient slow ones.
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(makeRecord("a", 10.0));
  for (int i = 0; i < 5; ++i) records.push_back(makeRecord("a", 1.0));
  records.push_back(makeRecord("a", 2.0));
  RegressionPolicy policy;
  policy.window = 5;
  EXPECT_FALSE(checkRegressions(records, policy).ok());
}

}  // namespace
}  // namespace sca::obs
