#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"

namespace sca::runtime {
namespace {

/// Tests drive explicit pool sizes; restore the environment default after
/// each so suites sharing the process are unaffected.
class RuntimeTest : public ::testing::Test {
 protected:
  ~RuntimeTest() override { setGlobalThreadCount(0); }
};

TEST_F(RuntimeTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setGlobalThreadCount(threads);
    constexpr std::size_t kBegin = 3, kEnd = 517;
    std::vector<std::atomic<int>> visits(kEnd);
    for (auto& v : visits) v.store(0);
    parallelFor(kBegin, kEnd, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < kEnd; ++i) {
      EXPECT_EQ(visits[i].load(), i >= kBegin ? 1 : 0) << "index " << i;
    }
  }
}

TEST_F(RuntimeTest, ParallelForEmptyAndSingletonRanges) {
  setGlobalThreadCount(4);
  std::atomic<int> calls{0};
  parallelFor(5, 5, [&](std::size_t) { ++calls; });
  parallelFor(7, 3, [&](std::size_t) { ++calls; });  // inverted = empty
  EXPECT_EQ(calls.load(), 0);
  parallelFor(9, 10, [&](std::size_t i) {
    EXPECT_EQ(i, 9u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(RuntimeTest, ParallelForHonoursGrainAndMaxWorkers) {
  setGlobalThreadCount(4);
  std::atomic<int> count{0};
  ParallelOptions options;
  options.grain = 7;
  options.maxWorkers = 2;
  parallelFor(0, 100, [&](std::size_t) { ++count; }, options);
  EXPECT_EQ(count.load(), 100);
}

TEST_F(RuntimeTest, ParallelForPropagatesTheFirstException) {
  setGlobalThreadCount(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      parallelFor(0, 64,
                  [&](std::size_t i) {
                    ++ran;
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The throwing index ran; unstarted chunks were abandoned, never
  // half-executed (ran is only bumped before the throw).
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
}

TEST_F(RuntimeTest, ParallelForSerialPathPropagatesExceptions) {
  setGlobalThreadCount(1);
  EXPECT_THROW(parallelFor(0, 4,
                           [](std::size_t i) {
                             if (i == 2) throw std::invalid_argument("bad");
                           }),
               std::invalid_argument);
}

TEST_F(RuntimeTest, ParallelMapKeepsResultOrder) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setGlobalThreadCount(threads);
    const std::vector<std::size_t> out =
        parallelMap<std::size_t>(200, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 200u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST_F(RuntimeTest, NestedParallelismDegradesToSerial) {
  setGlobalThreadCount(4);
  EXPECT_FALSE(inParallelRegion());  // the test thread is not a pool worker
  std::atomic<int> nestedParallel{0};
  std::atomic<int> total{0};
  parallelFor(0, 8, [&](std::size_t) {
    // Inner loops still run — just inline on the current worker.
    parallelFor(0, 4, [&](std::size_t) {
      ++total;
      if (!inParallelRegion()) ++nestedParallel;
    });
  });
  EXPECT_EQ(total.load(), 32);
  // Every inner iteration observed itself inside a pool task (or the
  // caller's helping thread, which never re-submits either way).
  EXPECT_EQ(nestedParallel.load(), 0);
}

TEST_F(RuntimeTest, TaskSeedsAreDistinctAndScheduleFree) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(taskSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);        // no collisions in practice
  EXPECT_EQ(taskSeed(42, 7), taskSeed(42, 7));  // pure function of inputs
  EXPECT_NE(taskSeed(42, 7), taskSeed(43, 7));
}

TEST_F(RuntimeTest, ConfiguredThreadCountIsPositive) {
  EXPECT_GE(configuredThreadCount(), 1u);
}

TEST_F(RuntimeTest, PhaseTimerRecordsScope) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::string gauge = std::string(obs::kPhaseGaugePrefix) + "scoped";
  const obs::MetricsSnapshot before = registry.snapshot();
  const double recorded =
      before.gauges.count(gauge) != 0 ? before.gauges.at(gauge) : 0.0;
  {
    PhaseTimer timer("scoped");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const obs::MetricsSnapshot after = registry.snapshot();
  ASSERT_EQ(after.gauges.count(gauge), 1u);
  EXPECT_GE(after.gauges.at(gauge) - recorded, 0.002);
}

}  // namespace
}  // namespace sca::runtime
