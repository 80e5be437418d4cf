// Microbenchmarks (google-benchmark) for the pipeline primitives: lexing,
// layout metrics, parsing, rendering, style application, feature
// extraction and random-forest train/predict.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "ast/parser.hpp"
#include "ast/render.hpp"
#include "bench_common.hpp"
#include "core/attribution_model.hpp"
#include "corpus/dataset.hpp"
#include "features/extractor.hpp"
#include "lexer/layout.hpp"
#include "lexer/lexer.hpp"
#include "llm/pipelines.hpp"
#include "ml/random_forest.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "style/apply.hpp"
#include "util/rng.hpp"

namespace {

using namespace sca;

const std::string& sampleSource() {
  static const std::string kSource = [] {
    const auto authors = corpus::makeAuthorPopulation(2018, 1);
    return corpus::renderSolution(authors[0],
                                  corpus::challengeById("tidy"), 2018, 0);
  }();
  return kSource;
}

void BM_Tokenize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(lexer::tokenize(sampleSource()));
  }
}
BENCHMARK(BM_Tokenize);

void BM_LayoutMetrics(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(lexer::computeLayoutMetrics(sampleSource()));
  }
}
BENCHMARK(BM_LayoutMetrics);

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ast::parse(sampleSource()));
  }
}
BENCHMARK(BM_Parse);

void BM_Render(benchmark::State& state) {
  const ast::ParseResult parsed = ast::parse(sampleSource());
  const ast::RenderOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ast::render(parsed.unit, options));
  }
}
BENCHMARK(BM_Render);

void BM_ApplyStyle(benchmark::State& state) {
  const ast::ParseResult parsed = ast::parse(sampleSource());
  util::Rng rng(7);
  const style::StyleProfile profile = style::sampleProfile(rng);
  std::uint64_t salt = 0;
  for (auto _ : state) {
    util::Rng applyRng(salt++);
    benchmark::DoNotOptimize(
        style::applyStyle(parsed.unit, profile, applyRng));
  }
}
BENCHMARK(BM_ApplyStyle);

void BM_FeatureTransform(benchmark::State& state) {
  features::FeatureExtractor extractor;
  extractor.fit({sampleSource()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.transform(sampleSource()));
  }
}
BENCHMARK(BM_FeatureTransform);

ml::Dataset syntheticDataset(std::size_t rows, std::size_t dims,
                             int classes) {
  util::Rng rng(11);
  ml::Dataset data;
  for (std::size_t i = 0; i < rows; ++i) {
    const int label = static_cast<int>(i % static_cast<std::size_t>(classes));
    std::vector<double> row(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = rng.uniformReal() + (d % static_cast<std::size_t>(classes) ==
                                            static_cast<std::size_t>(label)
                                        ? 0.6
                                        : 0.0);
    }
    data.x.push_back(std::move(row));
    data.y.push_back(label);
  }
  return data;
}

void BM_ForestFit(benchmark::State& state) {
  const ml::Dataset data = syntheticDataset(800, 120, 16);
  ml::ForestConfig config;
  config.treeCount = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest forest(config);
    forest.fit(data);
    benchmark::DoNotOptimize(forest.treeCount());
  }
}
BENCHMARK(BM_ForestFit)->Arg(10)->Arg(40);

void BM_ForestPredict(benchmark::State& state) {
  const ml::Dataset data = syntheticDataset(800, 120, 16);
  ml::ForestConfig config;
  config.treeCount = 40;
  ml::RandomForest forest(config);
  forest.fit(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(data.x[0]));
  }
}
BENCHMARK(BM_ForestPredict);

// ---------------------------------------------------- parallel pipeline --
// The macro benchmarks below exercise the shared runtime pool end to end.
// Compare SCA_THREADS=1 vs default to measure the parallel speedup of a
// full table-style regeneration (corpus -> transform -> train -> predict).

const corpus::YearDataset& miniCorpus() {
  static const corpus::YearDataset kCorpus =
      corpus::buildYearDataset(2018, 24);
  return kCorpus;
}

void BM_BuildTransformedDataset(benchmark::State& state) {
  const corpus::YearDataset& data = miniCorpus();
  const auto steps = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(llm::buildTransformedDataset(data, steps));
  }
  state.counters["threads"] =
      static_cast<double>(runtime::globalPool().size());
}
BENCHMARK(BM_BuildTransformedDataset)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_FeatureTransformAll(benchmark::State& state) {
  const corpus::YearDataset& data = miniCorpus();
  std::vector<std::string> sources;
  for (const corpus::CodeSample& sample : data.samples) {
    sources.push_back(sample.source);
  }
  features::FeatureExtractor extractor;
  extractor.fit(sources);
  for (auto _ : state) {
    features::clearAnalysisCache();  // measure extraction, not memoization
    benchmark::DoNotOptimize(extractor.transformAll(sources));
  }
  state.counters["threads"] =
      static_cast<double>(runtime::globalPool().size());
}
BENCHMARK(BM_FeatureTransformAll)->Unit(benchmark::kMillisecond);

void BM_AttributionTrainPredict(benchmark::State& state) {
  const corpus::YearDataset& data = miniCorpus();
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& sample : data.samples) {
    sources.push_back(sample.source);
    labels.push_back(sample.authorId);
  }
  core::ModelConfig config;
  config.forest.treeCount = 60;
  for (auto _ : state) {
    features::clearAnalysisCache();
    core::AttributionModel model(config);
    model.train(sources, labels);
    benchmark::DoNotOptimize(model.predictAll(sources));
  }
  state.counters["threads"] =
      static_cast<double>(runtime::globalPool().size());
}
BENCHMARK(BM_AttributionTrainPredict)->Unit(benchmark::kMillisecond);

/// SCA_PIPELINE_ONCE mode: exactly one deterministic pass over the mini
/// pipeline (corpus -> transform -> train -> predict), each stage under a
/// PhaseTimer. Unlike the google-benchmark path, whose adaptive iteration
/// counts vary run to run, this mode performs a fixed event sequence — so
/// the manifest's stable metrics section is byte-identical across
/// SCA_THREADS values, which is what the CI observability smoke compares.
int runPipelineOnce() {
  const corpus::YearDataset* data = nullptr;
  {
    runtime::PhaseTimer timer("corpus_build");
    data = &miniCorpus();
  }
  llm::TransformedDataset transformed;
  {
    runtime::PhaseTimer timer("llm_transform");
    transformed = llm::buildTransformedDataset(*data, 3);
  }
  std::vector<std::string> sources;
  std::vector<int> labels;
  for (const corpus::CodeSample& sample : data->samples) {
    sources.push_back(sample.source);
    labels.push_back(sample.authorId);
  }
  core::ModelConfig config;
  config.forest.treeCount = 60;
  core::AttributionModel model(config);
  {
    runtime::PhaseTimer timer("train");
    model.train(sources, labels);
  }
  std::vector<int> predictions;
  {
    runtime::PhaseTimer timer("predict");
    predictions = model.predictAll(sources);
  }

  // Deterministic digest of everything the pass produced — every
  // transformed sample byte and every predicted label. This line must be
  // byte-identical with the result cache off, cold or warm, at any
  // SCA_THREADS; the CI cache smoke compares it across those runs.
  std::uint64_t digest = util::hash64("pipeline");
  for (const llm::TransformedSample& sample : transformed.samples) {
    digest = util::combine64(digest, util::hash64(sample.source));
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    digest = util::combine64(digest,
                             static_cast<std::uint64_t>(predictions[i]));
    if (predictions[i] == labels[i]) ++correct;
  }
  const double accuracy =
      predictions.empty()
          ? 0.0
          : static_cast<double>(correct) /
                static_cast<double>(predictions.size());
  std::cout << "[pipeline] digest=" << util::toHex64(digest)
            << " transformed=" << transformed.samples.size()
            << " accuracy=" << util::formatDouble(accuracy, 6) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sca::bench::Session session("micro_pipeline");
  if (const char* once = std::getenv("SCA_PIPELINE_ONCE");
      once != nullptr && *once != '\0') {
    const int rc = runPipelineOnce();
    if (rc == 0) session.complete();
    return rc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  session.complete();
  return 0;
}
