/// \file timer.hpp
/// Minimal wall-clock stopwatch for benchmark reporting.
#pragma once

#include <chrono>

namespace conflux {

/// Steady-clock stopwatch. Starts running on construction; `seconds()`
/// reports the time since then.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  /// Elapsed seconds since construction.
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace conflux
