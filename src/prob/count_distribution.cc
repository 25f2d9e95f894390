#include "prob/count_distribution.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "math/kernels.h"
#include "util/serializer.h"

namespace auditgame::prob {

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalQuantile(double p) {
  double lo = -12.0, hi = 12.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (NormalCdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

CountDistribution::CountDistribution(int min_value, std::vector<double> pmf)
    : min_value_(min_value), pmf_(std::move(pmf)) {
  cdf_.resize(pmf_.size());
  double acc = 0.0;
  for (size_t i = 0; i < pmf_.size(); ++i) {
    acc += pmf_[i];
    cdf_[i] = acc;
  }
  // Guard against accumulated rounding: force the final CDF value to 1.
  if (!cdf_.empty()) cdf_.back() = 1.0;
}

util::StatusOr<CountDistribution> CountDistribution::FromPmf(
    int min_value, std::vector<double> pmf) {
  if (min_value < 0) {
    return util::InvalidArgumentError("alert counts cannot be negative");
  }
  if (pmf.empty()) return util::InvalidArgumentError("empty pmf");
  for (double p : pmf) {
    if (p < 0 || !std::isfinite(p)) {
      return util::InvalidArgumentError("pmf entries must be finite and >= 0");
    }
  }
  // Canonical blocked-order normalization (math/kernels.h): the mass sum
  // and the renormalization are defined in kernel semantics, so the pmf is
  // bit-identical whichever backend is active.
  const double total = math::Sum(pmf.data(), pmf.size());
  if (total <= 0) return util::InvalidArgumentError("pmf sums to zero");
  math::Scale(1.0 / total, pmf.data(), pmf.size());
  return CountDistribution(min_value, std::move(pmf));
}

util::StatusOr<CountDistribution> CountDistribution::DiscretizedGaussian(
    double mean, double stddev, int lo, int hi) {
  if (stddev <= 0) return util::InvalidArgumentError("stddev must be > 0");
  if (lo < 0 || hi < lo) {
    return util::InvalidArgumentError("invalid support [" +
                                      std::to_string(lo) + ", " +
                                      std::to_string(hi) + "]");
  }
  std::vector<double> pmf(static_cast<size_t>(hi - lo) + 1);
  for (int z = lo; z <= hi; ++z) {
    const double upper = NormalCdf((z + 0.5 - mean) / stddev);
    const double lower = NormalCdf((z - 0.5 - mean) / stddev);
    pmf[static_cast<size_t>(z - lo)] = std::max(0.0, upper - lower);
  }
  return FromPmf(lo, std::move(pmf));
}

util::StatusOr<CountDistribution>
CountDistribution::DiscretizedGaussianWithCoverage(double mean, double stddev,
                                                   double coverage) {
  if (coverage <= 0 || coverage >= 1) {
    return util::InvalidArgumentError("coverage must be in (0, 1)");
  }
  if (stddev <= 0) return util::InvalidArgumentError("stddev must be > 0");
  const double z = NormalQuantile(0.5 * (1.0 + coverage));
  const int half_width = static_cast<int>(std::ceil(z * stddev));
  const int center = static_cast<int>(std::llround(mean));
  const int lo = std::max(0, center - half_width);
  const int hi = std::max(lo, center + half_width);
  return DiscretizedGaussian(mean, stddev, lo, hi);
}

util::StatusOr<CountDistribution> CountDistribution::TruncatedPoisson(
    double lambda, double coverage) {
  if (lambda <= 0) return util::InvalidArgumentError("lambda must be > 0");
  if (coverage <= 0 || coverage >= 1) {
    return util::InvalidArgumentError("coverage must be in (0, 1)");
  }
  std::vector<double> pmf;
  double p = std::exp(-lambda);
  double acc = 0.0;
  int z = 0;
  // Accumulate Poisson mass until the requested coverage is reached; the
  // hard cap guards against pathological lambdas.
  const int hard_cap = static_cast<int>(lambda + 20 * std::sqrt(lambda) + 50);
  while (acc < coverage && z <= hard_cap) {
    pmf.push_back(p);
    acc += p;
    ++z;
    p *= lambda / z;
  }
  return FromPmf(0, std::move(pmf));
}

util::StatusOr<CountDistribution> CountDistribution::FromSamples(
    const std::vector<int>& samples) {
  if (samples.empty()) return util::InvalidArgumentError("no samples");
  int lo = samples[0], hi = samples[0];
  for (int s : samples) {
    if (s < 0) return util::InvalidArgumentError("negative count sample");
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  std::vector<double> pmf(static_cast<size_t>(hi - lo) + 1, 0.0);
  for (int s : samples) pmf[static_cast<size_t>(s - lo)] += 1.0;
  return FromPmf(lo, std::move(pmf));
}

CountDistribution CountDistribution::Constant(int value) {
  return CountDistribution(value, {1.0});
}

void CountDistribution::StreamState(util::Serializer& s) {
  s.Section("pcd", 1);
  s.I32(min_value_);
  s.VecF64(pmf_);
  s.VecF64(cdf_);
  if (s.reading() && s.ok() && cdf_.size() != pmf_.size()) {
    s.Fail(util::InvalidArgumentError(
        "CountDistribution: pmf/cdf length mismatch in stream"));
  }
}

bool CountDistribution::BitwiseEqual(const CountDistribution& other) const {
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  return min_value_ == other.min_value_ && same_bits(pmf_, other.pmf_) &&
         same_bits(cdf_, other.cdf_);
}

double CountDistribution::Pmf(int z) const {
  if (z < min_value_ || z > max_value()) return 0.0;
  return pmf_[static_cast<size_t>(z - min_value_)];
}

double CountDistribution::Cdf(int n) const {
  if (n < min_value_) return 0.0;
  if (n >= max_value()) return 1.0;
  return cdf_[static_cast<size_t>(n - min_value_)];
}

int CountDistribution::UpperBound(double coverage) const {
  for (int z = min_value_; z <= max_value(); ++z) {
    if (Cdf(z) >= coverage) return z;
  }
  return max_value();
}

double CountDistribution::Mean() const {
  math::BlockedAccumulator mean;
  for (size_t i = 0; i < pmf_.size(); ++i) {
    mean.Add(pmf_[i] * (min_value_ + static_cast<int>(i)));
  }
  return mean.Total();
}

double CountDistribution::Variance() const {
  const double mean = Mean();
  math::BlockedAccumulator var;
  for (size_t i = 0; i < pmf_.size(); ++i) {
    const double d = (min_value_ + static_cast<int>(i)) - mean;
    var.Add(pmf_[i] * d * d);
  }
  return var.Total();
}

int CountDistribution::Sample(util::Rng& rng) const {
  const double u = rng.Uniform();
  // Binary search the CDF table.
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const size_t idx =
      it == cdf_.end() ? cdf_.size() - 1
                       : static_cast<size_t>(it - cdf_.begin());
  return min_value_ + static_cast<int>(idx);
}

std::vector<int> SampleJoint(const std::vector<CountDistribution>& dists,
                             util::Rng& rng) {
  std::vector<int> z;
  z.reserve(dists.size());
  for (const auto& d : dists) z.push_back(d.Sample(rng));
  return z;
}

util::StatusOr<CountDistribution> JitterPmf(const CountDistribution& dist,
                                            double amplitude,
                                            util::Rng& rng) {
  if (amplitude < 0.0 || amplitude >= 1.0) {
    return util::InvalidArgumentError("jitter amplitude must be in [0, 1)");
  }
  std::vector<double> pmf;
  pmf.reserve(static_cast<size_t>(dist.support_size()));
  for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
    pmf.push_back(dist.Pmf(z) * (1.0 + rng.Uniform(-amplitude, amplitude)));
  }
  return CountDistribution::FromPmf(dist.min_value(), std::move(pmf));
}

double TotalVariationDistance(const CountDistribution& p,
                              const CountDistribution& q) {
  // Aligned supports (the common serving case: drift between a pmf and its
  // jittered successor) reduce to one AbsDiffSum kernel call over the raw
  // tables; mismatched supports fall back to the padded loop, in the same
  // canonical blocked order.
  if (p.min_value() == q.min_value() && p.max_value() == q.max_value()) {
    return 0.5 * math::AbsDiffSum(p.pmf_data().data(), q.pmf_data().data(),
                                  p.pmf_data().size());
  }
  const int lo = std::min(p.min_value(), q.min_value());
  const int hi = std::max(p.max_value(), q.max_value());
  math::BlockedAccumulator sum;
  for (int z = lo; z <= hi; ++z) {
    sum.Add(std::fabs(p.Pmf(z) - q.Pmf(z)));
  }
  return 0.5 * sum.Total();
}

}  // namespace auditgame::prob
