#include "runtime/timer.hpp"

#include <cstdlib>
#include <thread>

#include "obs/metrics.hpp"

namespace sca::runtime {

PhaseTimer::~PhaseTimer() {
  static const int delayMs = [] {
    const char* env = std::getenv("SCA_OBS_TEST_DELAY_MS");
    return env != nullptr && *env != '\0' ? std::atoi(env) : 0;
  }();
  if (delayMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  std::string name;
  name.reserve(obs::kPhaseGaugePrefix.size() + phase_.size());
  name += obs::kPhaseGaugePrefix;
  name += phase_;
  obs::MetricsRegistry::global().gauge(name, obs::GaugeKind::kSum).add(seconds);
}

}  // namespace sca::runtime
