// Phase timing: the one way to time a pipeline stage.
//
// Pipeline stages record wall-clock seconds under a phase name
// ("corpus_build", "feature_extract", "forest_train", "predict", ...).
// PhaseTimer adds each scope's seconds to the Sum gauge
// obs::kPhaseGaugePrefix + phase in the metrics registry, so the same
// numbers surface in the run manifest's "phases" section, the history
// record and `sca_cli metrics`. Concurrent scopes of one phase add their
// per-task wall time, so a phase can exceed the run's wall clock on
// multi-core hosts.
#pragma once

#include <chrono>
#include <string>

#include "obs/trace.hpp"

namespace sca::runtime {

/// RAII: adds the scope's wall time to the phase gauge on destruction,
/// and brackets the scope with an obs::Span so phases show up in Chrome
/// traces with parent linkage when SCA_TRACE is set.
///
/// CI slowdown-injection hook: the destructor first sleeps
/// SCA_OBS_TEST_DELAY_MS milliseconds (cached; 0/unset = free no-op), so
/// the injected delay lands in the phase's recorded wall time — the lever
/// tools/ci.sh uses to prove `sca_cli history check` catches a regression.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string phase)
      : span_(phase, "phase"),
        phase_(std::move(phase)),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::Span span_;  // first: opens before timing starts, closes after
  std::string phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sca::runtime
