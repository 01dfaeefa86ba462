// Wall-clock stopwatch for coarse timings in benches and reports.
#ifndef FLOWSCHED_UTIL_STOPWATCH_H_
#define FLOWSCHED_UTIL_STOPWATCH_H_

#include <chrono>

namespace flowsched {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_STOPWATCH_H_
