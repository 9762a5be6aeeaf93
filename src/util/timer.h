// Wall-clock timing helper used by the benchmark harnesses and the per-
// iteration instrumentation of the bundling algorithms (Figure 6).

#ifndef BUNDLEMINE_UTIL_TIMER_H_
#define BUNDLEMINE_UTIL_TIMER_H_

#include <chrono>

namespace bundlemine {

/// Monotonic wall-clock stopwatch. Starts on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace bundlemine

#endif  // BUNDLEMINE_UTIL_TIMER_H_
