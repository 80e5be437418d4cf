// perfbench: one benchmark run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--size full|smoke]
//
// Untraced (--trace 0): set up at least 3 times and for at least 3 s
// (each from a cold analysis cache; the first from process start), then
// run timed iterations of the library entry points until `s` seconds have
// passed. Traced (--trace 1):
// set up once through the library and once through the split, spanned
// path, then alternate untraced and traced iterations for `s` seconds; the
// spans give the per-layer numbers, the pairs give the tracing overhead.
//
// Prints one line "PERFBENCH_RAW <json>" with every raw measurement; the
// wrapper script (run.py) checks digests and reduces it to the benchmark's
// metrics. Exits 2 on bad arguments or a refused environment.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "features/extractor.hpp"
#include "obs/flight.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;

const Clock::time_point gProcessStart = Clock::now();

// Set-up repetitions of an untraced run: at least kSetupMinReps and
// kSetupSeconds of them, so a cheap set-up gets a steady median.
constexpr int kSetupMinReps = 3;
constexpr double kSetupSeconds = 3.0;
constexpr int kSetupMaxReps = 25;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

struct Iteration {
  bool traced = false;
  double wall = 0;
  double cpu = 0;
  perfbench::Outcome outcome;
  std::string error;  // empty when the iteration completed
};

struct Options {
  std::string workload;
  long long seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string scratch;
};

bool parseOptions(int argc, char** argv, Options& options) {
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
        haveWorkload = true;
      } else if (key == "--seed") {
        options.seed = std::stoll(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
      } else if (key == "--size") {
        if (value != "full" && value != "smoke") return false;
        options.smoke = value == "smoke";
      } else if (key == "--scratch") {
        options.scratch = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && haveWorkload && !options.scratch.empty() &&
         options.seconds > 0;
}

/// Runs one iteration: untimed guard, timed work, untimed collection.
Iteration iterate(perfbench::Workload& workload, bool traced) {
  Iteration it;
  it.traced = traced;
  try {
    workload.beforeIteration();
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    if (traced) {
      perfbench::Span root("bench.iteration");
      workload.runTraced();
    } else {
      workload.run();
    }
    it.wall = secondsSince(t0);
    it.cpu = cpuSeconds() - cpu0;
    it.outcome = workload.collect();
    workload.afterIteration();
  } catch (const std::exception& e) {
    it.error = e.what();
    try {
      workload.afterIteration();
    } catch (const std::exception&) {
    }
  }
  return it;
}

/// Per-layer metrics of a traced run. Work counts and times cover one
/// set-up plus one iteration (the median iteration of each metric);
/// self times and ratios cover the timed iteration only.
class LayerReport {
 public:
  LayerReport(perfbench::PhaseAccount setup,
              std::map<std::string, std::uint64_t> setupCounts)
      : setup_(std::move(setup)), setupCounts_(std::move(setupCounts)) {}

  void addIteration(perfbench::PhaseAccount account,
                    std::map<std::string, std::uint64_t> counts, double cpu) {
    iterations_.push_back(std::move(account));
    counts_.push_back(std::move(counts));
    cpu_.push_back(cpu);
  }

  [[nodiscard]] std::size_t iterations() const { return iterations_.size(); }

  /// setup value + median over iterations of `pick`.
  template <typename Pick>
  double total(Pick pick) const {
    std::vector<double> values;
    for (const auto& account : iterations_) values.push_back(pick(account));
    return pick(setup_) + median(values);
  }

  template <typename Pick>
  double perIteration(Pick pick) const {
    std::vector<double> values;
    for (std::size_t i = 0; i < iterations_.size(); ++i) {
      values.push_back(pick(iterations_[i], i));
    }
    return median(values);
  }

  double seconds(const std::string& name) const {
    return total([&](const auto& a) { return lookup(a.nameSeconds, name); });
  }
  double wall(const std::string& name) const {
    return total([&](const auto& a) { return lookup(a.nameWall, name); });
  }
  double count(const std::string& name) const {
    return total([&](const auto& a) {
      return static_cast<double>(lookup(a.nameCount, name));
    });
  }
  double items(const std::string& name) const {
    return total([&](const auto& a) {
      return static_cast<double>(lookup(a.nameItems, name));
    });
  }
  double noted(const std::string& name) const {
    std::vector<double> values;
    for (const auto& counts : counts_) {
      values.push_back(static_cast<double>(lookup(counts, name)));
    }
    return static_cast<double>(lookup(setupCounts_, name)) + median(values);
  }
  double layerSelf(const std::string& layer) const {
    return perIteration([&](const auto& a, std::size_t) {
      const auto it = a.layers.find(layer);
      return it == a.layers.end() ? 0.0 : it->second.self;
    });
  }
  double layerBusy(const std::string& layer) const {
    return total([&](const auto& a) {
      const auto it = a.layers.find(layer);
      return it == a.layers.end() ? 0.0 : it->second.busy;
    });
  }
  double foldSkew() const {
    return perIteration([](const auto& a, std::size_t) {
      if (a.foldSeconds.empty()) return 0.0;
      const double slowest =
          *std::max_element(a.foldSeconds.begin(), a.foldSeconds.end());
      const double mid = median(a.foldSeconds);
      return mid > 0 ? slowest / mid : 0.0;
    });
  }
  double queueWait() const {
    return perIteration(
        [](const auto& a, std::size_t) { return a.queueWait; });
  }
  double utilization(std::size_t workers) const {
    return perIteration([&](const auto& a, std::size_t i) {
      return a.rootSeconds > 0
                 ? cpu_[i] / (a.rootSeconds * static_cast<double>(workers))
                 : 0.0;
    });
  }

  /// Failed self-checks, one message each.
  [[nodiscard]] std::vector<std::string> check() const {
    std::vector<std::string> failures;
    const auto checkPhase = [&](const perfbench::PhaseAccount& phase,
                                const std::string& label) {
      // A span outside the tree, open or escaping its parent hides time
      // from the per-layer accounting.
      if (phase.strays + phase.unclosed + phase.escaped > 0) {
        failures.push_back(label + ": span tree not whole: " +
                           std::to_string(phase.strays) + " outside the root, " +
                           std::to_string(phase.unclosed) + " unclosed, " +
                           std::to_string(phase.escaped) +
                           " outside their parent");
      }
      // Holds by construction once the tree is whole; guards the sweep.
      double sum = 0;
      for (const auto& [layer, times] : phase.layers) sum += times.self;
      const double wall = phase.rootSeconds;
      if (std::fabs(sum - wall) > 1e-6 * std::max(1.0, wall)) {
        failures.push_back(label + ": layer self times sum to " + number(sum) +
                           " s, phase wall is " + number(wall) + " s");
      }
    };
    checkPhase(setup_, "traced set-up");
    for (std::size_t i = 0; i < iterations_.size(); ++i) {
      checkPhase(iterations_[i], "traced iteration " + std::to_string(i));
    }
    // Counts that are a pure function of the inputs must repeat exactly.
    for (const char* name : {"ml.fit", "ml.predict", "ml.stream_predict",
                             "llm.transform", "corpus.build",
                             "corpus.matrix"}) {
      for (std::size_t i = 1; i < iterations_.size(); ++i) {
        if (lookup(iterations_[i].nameItems, name) !=
            lookup(iterations_[0].nameItems, name)) {
          failures.push_back(std::string("item count of ") + name +
                             " differs between traced iterations");
        }
      }
    }
    return failures;
  }

 private:
  template <typename Map>
  static typename Map::mapped_type lookup(const Map& map,
                                          const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? typename Map::mapped_type{} : it->second;
  }

  perfbench::PhaseAccount setup_;
  std::map<std::string, std::uint64_t> setupCounts_;
  std::vector<perfbench::PhaseAccount> iterations_;
  std::vector<std::map<std::string, std::uint64_t>> counts_;
  std::vector<double> cpu_;
};

std::string layerJson(const LayerReport& report, std::size_t workers,
                      double hitRatio, double overheadPct) {
  std::vector<std::pair<std::string, double>> metrics;
  const auto add = [&](const std::string& name, double value) {
    metrics.emplace_back(name, value);
  };
  add("ml.fit_busy_s", report.seconds("ml.fit"));
  add("ml.fit_wall_s", report.wall("ml.fit"));
  add("ml.fits", report.count("ml.fit"));
  add("ml.trees", report.items("ml.fit"));
  add("ml.fold_skew", report.foldSkew());
  add("ml.predict_s",
      report.seconds("ml.predict") + report.seconds("ml.stream_predict"));
  add("ml.rows_predicted",
      report.items("ml.predict") + report.items("ml.stream_predict"));
  add("ml.stream_predict_s", report.seconds("ml.stream_predict"));
  add("runtime.utilization", report.utilization(workers));
  add("runtime.queue_wait_s", report.queueWait());
  add("features.select_s", report.seconds("features.select"));
  add("features.extract_s", report.seconds("features.extract"));
  add("features.extract_rows", report.items("features.extract"));
  add("features.hit_ratio", hitRatio);
  const double samples = report.items("llm.transform");
  const double degraded = report.noted("llm.degraded_steps");
  add("llm.transform_s", report.seconds("llm.transform"));
  add("llm.samples", samples);
  add("llm.degraded_steps", degraded);
  add("llm.ok_ratio", samples > 0 ? 1.0 - degraded / samples : 0.0);
  add("corpus.build_s", report.seconds("corpus.build"));
  add("corpus.samples", report.items("corpus.build"));
  add("corpus.matrix_s", report.seconds("corpus.matrix"));
  add("corpus.matrix_rows", report.items("corpus.matrix"));
  for (const char* layer :
       {"bench", "core", "runtime", "features", "ml", "llm", "corpus"}) {
    add(std::string(layer) + ".self_s", report.layerSelf(layer));
    add(std::string(layer) + ".busy_s", report.layerBusy(layer));
  }
  add("obs.trace_overhead_pct", overheadPct);

  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += quoted(metrics[i].first) + ":" + number(metrics[i].second);
  }
  return out + "}";
}

/// Analysis-cache lookups summed over the traced phases.
struct CacheLookups {
  std::size_t hits = 0;
  std::size_t lookups = 0;

  void add(const sca::features::AnalysisCacheStats& before,
           const sca::features::AnalysisCacheStats& after) {
    hits += after.hits - before.hits;
    lookups += (after.hits + after.misses) - (before.hits + before.misses);
  }
  [[nodiscard]] double ratio() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parseOptions(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --scratch <dir> [--size full|smoke]\n";
    return 2;
  }
  // The last two are test hooks: one sleeps in every PhaseTimer scope,
  // the other wedges a pool task.
  for (const char* name :
       {"SCA_CACHE_DIR", "SCA_FAULT_RATE", "SCA_CHECKPOINT_DIR", "SCA_TRACE",
        "SCA_LOG", "SCA_HISTORY", "SCA_OBS_TEST_DELAY_MS",
        "SCA_OBS_TEST_STALL_MS"}) {
    const char* value = std::getenv(name);
    if (value != nullptr && *value != '\0') {
      std::cerr << "perfbench: refusing to run with " << name
                << " set; it changes what is measured\n";
      return 2;
    }
  }

  const perfbench::SeedConfig seed = perfbench::seedConfig(options.seed);
  std::unique_ptr<perfbench::Workload> workload = perfbench::makeWorkload(
      options.workload, seed, options.smoke, options.scratch);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  // Armed as bench::Session arms it, so its cost stays in the measurement;
  // dumps land in the scratch directory.
  sca::obs::flight::ArmOptions flight =
      sca::obs::flight::armOptionsFromEnv("perfbench." + options.workload);
  flight.dir = options.scratch + "/flight";
  const sca::obs::flight::ArmedScope armed(flight);

  std::vector<double> setupSeconds;
  std::vector<Iteration> iterations;
  std::vector<std::string> failures;
  std::string layers = "{}";
  perfbench::SpanRecorder& recorder = perfbench::SpanRecorder::global();

  try {
    if (!options.trace) {
      double setupTotal = 0;
      for (int rep = 0; rep < kSetupMaxReps &&
                        (rep < kSetupMinReps || setupTotal < kSetupSeconds);
           ++rep) {
        Clock::time_point start = gProcessStart;
        if (rep > 0) {
          workload = perfbench::makeWorkload(options.workload, seed,
                                             options.smoke, options.scratch);
          sca::features::clearAnalysisCache();
          start = Clock::now();
        }
        workload->setup();
        setupSeconds.push_back(secondsSince(start));
        setupTotal += setupSeconds.back();
      }
      const Clock::time_point loopStart = Clock::now();
      do {
        iterations.push_back(iterate(*workload, false));
      } while (secondsSince(loopStart) < options.seconds);
    } else {
      workload->setup();
      sca::features::clearAnalysisCache();
      CacheLookups lookups;
      auto stats = sca::features::analysisCacheStats();
      recorder.setEnabled(true);
      std::uint32_t rootId = 0;
      {
        perfbench::Span root("bench.setup");
        rootId = root.id();
        workload->setupTraced();
      }
      perfbench::Recorded setup = recorder.take();
      recorder.setEnabled(false);
      lookups.add(stats, sca::features::analysisCacheStats());
      LayerReport report(perfbench::account(setup.spans, rootId),
                         std::move(setup.counts));

      const Clock::time_point loopStart = Clock::now();
      for (bool traced = false;
           secondsSince(loopStart) < options.seconds ||
           report.iterations() == 0;
           traced = !traced) {
        if (!traced) {
          iterations.push_back(iterate(*workload, false));
          continue;
        }
        stats = sca::features::analysisCacheStats();
        recorder.setEnabled(true);
        Iteration it = iterate(*workload, true);
        perfbench::Recorded recorded = recorder.take();
        recorder.setEnabled(false);
        lookups.add(stats, sca::features::analysisCacheStats());
        if (it.error.empty()) {
          const auto root = std::find_if(
              recorded.spans.begin(), recorded.spans.end(),
              [](const auto& s) { return s.name == "bench.iteration"; });
          report.addIteration(perfbench::account(recorded.spans, root->id),
                              std::move(recorded.counts), it.cpu);
        }
        const bool failed = !it.error.empty();
        iterations.push_back(std::move(it));
        if (failed) break;
      }

      std::vector<double> plain, traced;
      for (const Iteration& it : iterations) {
        if (!it.error.empty()) continue;
        (it.traced ? traced : plain).push_back(it.wall);
      }
      const double overhead =
          plain.empty() || traced.empty()
              ? 0.0
              : (median(traced) / median(plain) - 1.0) * 100.0;
      const std::size_t workers = sca::runtime::globalPool().size();
      layers = layerJson(report, workers, lookups.ratio(), overhead);
      failures = report.check();
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("set-up failed: ") + e.what());
  }

  std::ostringstream json;
  json << "{\"workload\":" << quoted(options.workload)
       << ",\"seed\":" << seed.seed << ",\"seed_class\":" << seed.seedClass
       << ",\"year\":" << seed.year << ",\"forest_seed\":" << seed.forestSeed
       << ",\"size\":" << quoted(options.smoke ? "smoke" : "full")
       << ",\"describe\":" << quoted(workload->describe())
       << ",\"threads\":" << sca::runtime::globalPool().size()
       << ",\"traced\":" << (options.trace ? "true" : "false")
       << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setupSeconds.size(); ++i) {
    json << (i > 0 ? "," : "") << number(setupSeconds[i]);
  }
  json << "],\"iterations\":[";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const Iteration& it = iterations[i];
    json << (i > 0 ? "," : "") << "{\"traced\":"
         << (it.traced ? "true" : "false") << ",\"wall_s\":"
         << number(it.wall) << ",\"cpu_s\":" << number(it.cpu)
         << ",\"digest\":" << quoted(hex(it.outcome.digest))
         << ",\"units\":" << it.outcome.units
         << ",\"table\":" << quoted(it.outcome.table)
         << ",\"error\":" << quoted(it.error) << "}";
  }
  json << "],\"peak_rss_mb\":" << number(peakRssMb())
       << ",\"layers\":" << layers << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    json << (i > 0 ? "," : "") << quoted(failures[i]);
  }
  json << "]}";
  std::cout << "PERFBENCH_RAW " << json.str() << std::endl;
  return 0;
}
