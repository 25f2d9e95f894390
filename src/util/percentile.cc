#include "util/percentile.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace auditgame::util {
namespace {

/// Nearest-rank percentile of a non-empty ascending-sorted sample
/// (q in [0, 1]).
double NearestRankPercentileSorted(const std::vector<double>& sorted,
                                   double q) {
  const double rank = q * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  index = std::min(index, sorted.size() - 1);
  return sorted[index];
}

}  // namespace

Percentiles Summarize(std::vector<double> samples) {
  Percentiles summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.p50 = NearestRankPercentileSorted(samples, 0.50);
  summary.p90 = NearestRankPercentileSorted(samples, 0.90);
  summary.p99 = NearestRankPercentileSorted(samples, 0.99);
  summary.max = samples.back();
  return summary;
}

LatencyWindow::LatencyWindow(size_t capacity) : capacity_(capacity) {
  CHECK_GE(capacity, size_t{1}) << "LatencyWindow capacity";
}

void LatencyWindow::Add(double sample) {
  ++count_;
  if (samples_.size() < capacity_) {
    samples_.push_back(sample);
    return;
  }
  samples_[next_] = sample;
  next_ = (next_ + 1) % capacity_;
}

}  // namespace auditgame::util
