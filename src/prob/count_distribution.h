#ifndef AUDIT_GAME_PROB_COUNT_DISTRIBUTION_H_
#define AUDIT_GAME_PROB_COUNT_DISTRIBUTION_H_

#include <vector>

#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::util {
class Serializer;
}  // namespace auditgame::util

namespace auditgame::prob {

/// Standard normal CDF.
double NormalCdf(double x);

/// Standard normal quantile (inverse CDF) via bisection on NormalCdf.
/// Requires p in (0, 1).
double NormalQuantile(double p);

/// A discrete probability distribution over a contiguous integer support
/// [min_value, max_value], used to model the number of benign alerts of a
/// type raised per audit period — the paper's F_t(n).
///
/// The paper's construction (Section IV-A): take a Gaussian over alert
/// counts, discretize its CDF onto integers, and truncate to a finite
/// support covering ~99.5% of the mass; probabilities are renormalized over
/// the truncated support.
class CountDistribution {
 public:
  /// Builds from an explicit pmf over [min_value, min_value + pmf.size()).
  /// The pmf is normalized; all entries must be non-negative with positive
  /// sum.
  static util::StatusOr<CountDistribution> FromPmf(int min_value,
                                                   std::vector<double> pmf);

  /// Gaussian discretized on integers z in [lo, hi]:
  ///   p(z) ∝ Phi((z+1/2-mean)/std) - Phi((z-1/2-mean)/std),
  /// renormalized. Requires std > 0 and 0 <= lo <= hi.
  static util::StatusOr<CountDistribution> DiscretizedGaussian(double mean,
                                                               double stddev,
                                                               int lo, int hi);

  /// Gaussian with the support chosen symmetrically around the mean to
  /// cover `coverage` of the mass (e.g. 0.995 per the paper), clipped at 0.
  /// The half-width is ceil(z_{(1+coverage)/2} * stddev).
  static util::StatusOr<CountDistribution> DiscretizedGaussianWithCoverage(
      double mean, double stddev, double coverage = 0.995);

  /// Poisson(lambda) truncated at its `coverage` quantile.
  static util::StatusOr<CountDistribution> TruncatedPoisson(
      double lambda, double coverage = 0.9999);

  /// Empirical distribution from observed counts (e.g. per-day alert counts
  /// from an audit log). Support is [min(samples), max(samples)].
  static util::StatusOr<CountDistribution> FromSamples(
      const std::vector<int>& samples);

  /// Degenerate distribution: always `value`.
  static CountDistribution Constant(int value);

  /// Empty placeholder, only meaningful as a StreamState restore target
  /// (every factory above yields a non-empty support).
  CountDistribution() : min_value_(0) {}

  /// Streams the support and both probability tables as raw double bits —
  /// deliberately NOT via FromPmf, whose renormalization would perturb
  /// values by a few ULPs and break bit-for-bit replay.
  void StreamState(util::Serializer& s);

  /// True when both stream the same bytes: the same support and the same
  /// bits in both probability tables.
  bool BitwiseEqual(const CountDistribution& other) const;

  int min_value() const { return min_value_; }
  int max_value() const { return min_value_ + static_cast<int>(pmf_.size()) - 1; }
  int support_size() const { return static_cast<int>(pmf_.size()); }

  /// P(Z = z); zero outside the support.
  double Pmf(int z) const;

  /// The raw pmf table over [min_value, max_value] — contiguous access for
  /// the numeric kernels (math/kernels.h) on drift/convolution hot paths.
  const std::vector<double>& pmf_data() const { return pmf_; }

  /// F(n) = P(Z <= n). This is the paper's F_t.
  double Cdf(int n) const;

  /// Smallest n with Cdf(n) >= coverage. With coverage ~ 1 this is the
  /// paper's approximate upper bound on useful audit thresholds.
  int UpperBound(double coverage = 0.9995) const;

  double Mean() const;
  double Variance() const;

  /// Draws one sample (inverse-CDF method against the precomputed table).
  int Sample(util::Rng& rng) const;

 private:
  CountDistribution(int min_value, std::vector<double> pmf);

  int min_value_;
  std::vector<double> pmf_;
  std::vector<double> cdf_;  // cumulative, same length as pmf_
};

/// Samples one realization Z = (Z_1 .. Z_T) of independent per-type counts.
std::vector<int> SampleJoint(const std::vector<CountDistribution>& dists,
                             util::Rng& rng);

/// Total variation distance (1/2) * sum_z |P(z) - Q(z)| over the union of
/// the supports, in [0, 1]. The serving layer's drift measure between the
/// alert-count distributions a policy was solved under and the ones just
/// ingested (see service/audit_service.h).
double TotalVariationDistance(const CountDistribution& p,
                              const CountDistribution& q);

/// Multiplicative pmf jitter on the same support: p'(z) ∝ p(z)(1 + u_z),
/// u_z ~ U(-amplitude, amplitude), renormalized. Small amplitudes yield
/// small total-variation drift; used by the serving drivers
/// (scenario::ScenarioStream, bench/micro_cache) to synthesize drifting alert
/// streams. Requires amplitude in [0, 1).
util::StatusOr<CountDistribution> JitterPmf(const CountDistribution& dist,
                                            double amplitude, util::Rng& rng);

}  // namespace auditgame::prob

#endif  // AUDIT_GAME_PROB_COUNT_DISTRIBUTION_H_
