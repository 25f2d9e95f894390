#ifndef AUDIT_GAME_UTIL_PERCENTILE_H_
#define AUDIT_GAME_UTIL_PERCENTILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace auditgame::util {

/// Nearest-rank p50/p90/p99 and the maximum of one sample (all zero when
/// the sample is empty).
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Sorts `samples` (taken by value) and reads its percentiles — the one
/// summary behind the server's stats verb, tools/loadgen and the replay
/// tools.
Percentiles Summarize(std::vector<double> samples);

/// The most recent `capacity` samples of a latency stream (a bounded
/// ring, so memory stays O(1) on long runs) plus the lifetime sample
/// count; a capacity below 1 is a caller bug. Not thread-safe: an owner
/// that records on one thread and reports on another copies the window
/// under its lock and summarizes the copy.
class LatencyWindow {
 public:
  explicit LatencyWindow(size_t capacity);

  void Add(double sample);
  /// Samples ever added, including those the ring has since overwritten.
  int64_t count() const { return count_; }
  /// Percentiles of the samples still in the window.
  Percentiles Summary() const { return Summarize(samples_); }

 private:
  size_t capacity_;
  std::vector<double> samples_;
  size_t next_ = 0;
  int64_t count_ = 0;
};

}  // namespace auditgame::util

#endif  // AUDIT_GAME_UTIL_PERCENTILE_H_
