#ifndef AUDIT_GAME_UTIL_TIMER_H_
#define AUDIT_GAME_UTIL_TIMER_H_

#include <chrono>

namespace auditgame::util {

/// Wall-clock stopwatch used by benchmark harnesses to report the runtime of
/// each solver invocation.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace auditgame::util

#endif  // AUDIT_GAME_UTIL_TIMER_H_
