// Binary classification: ChatGPT-transformed vs human code (paper §VI-E,
// Table X), per-year and combined across years.
#pragma once

#include <array>
#include <vector>

#include "core/experiments.hpp"

namespace sca::core {

/// Label convention for the binary task.
inline constexpr int kHumanClass = 0;
inline constexpr int kChatGptClass = 1;

struct BinaryIndividualResult {
  int year = 0;
  std::vector<double> foldAccuracies;  // one per challenge (C1..C8)
  double meanAccuracy = 0.0;
};

/// Runs the per-year binary experiment with leave-one-challenge-out folds.
/// The human class is balanced to the transformed class per challenge.
[[nodiscard]] BinaryIndividualResult binaryIndividual(YearExperiment& year);

struct BinaryCombinedResult {
  std::vector<int> years;                 // column order
  std::size_t challengesPerYear = 5;      // the paper trims 8 -> 5
  /// perChallenge[c] = accuracy on that fold's test rows restricted to
  /// year[0], year[1], year[2], then all rows ("All" column).
  std::vector<std::array<double, 4>> perChallenge;
  std::array<double, 4> means{};
};

/// Runs the combined experiment over the given years (the paper combines
/// 2017+2018+2019 with 5 challenges each -> 6,000 samples). Throws
/// std::invalid_argument for no years or more than three.
[[nodiscard]] BinaryCombinedResult binaryCombined(
    std::vector<YearExperiment*> years, std::size_t challengesPerYear = 5);

}  // namespace sca::core
