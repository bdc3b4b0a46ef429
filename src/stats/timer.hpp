// Wall-clock timing utilities for encode/decode measurements (Table 2).
#pragma once

#include <chrono>

namespace gradcomp::stats {

// Monotonic stopwatch. Construction starts it; `seconds()` reads elapsed time.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gradcomp::stats
