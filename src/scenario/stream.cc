#include "scenario/stream.h"

#include <cmath>
#include <utility>

namespace auditgame::scenario {

util::StatusOr<StreamKind> StreamKindFromName(const std::string& name) {
  if (name == "jitter") return StreamKind::kJitter;
  if (name == "walk") return StreamKind::kRandomWalk;
  if (name == "seasonal") return StreamKind::kSeasonal;
  return util::NotFoundError("unknown stream kind '" + name +
                             "' (have: jitter, walk, seasonal)");
}

util::StatusOr<prob::CountDistribution> ExponentialTilt(
    const prob::CountDistribution& dist, double theta) {
  std::vector<double> pmf(static_cast<size_t>(dist.support_size()));
  for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
    // Anchor the exponent at min_value so the weights stay O(1) for the
    // small tilts the seasonal stream uses.
    pmf[static_cast<size_t>(z - dist.min_value())] =
        dist.Pmf(z) * std::exp(theta * static_cast<double>(z - dist.min_value()));
  }
  return prob::CountDistribution::FromPmf(dist.min_value(), std::move(pmf));
}

ScenarioStream::ScenarioStream(std::vector<prob::CountDistribution> baseline,
                               const StreamSpec& spec)
    : spec_(spec),
      baseline_(std::move(baseline)),
      current_(baseline_),
      rng_(spec.seed) {}

ScenarioStream::ScenarioStream(std::vector<prob::CountDistribution> baseline,
                               const StreamSpec& spec, CycleSource* source)
    : ScenarioStream(std::move(baseline), spec) {
  spec_.kind = StreamKind::kExternal;
  source_ = source;
}

util::StatusOr<std::vector<prob::CountDistribution>> ScenarioStream::Next() {
  ++cycle_;
  if (IsRevisit(cycle_)) return baseline_;

  if (spec_.kind == StreamKind::kExternal) {
    if (source_ == nullptr) {
      return util::FailedPreconditionError(
          "kExternal stream has no CycleSource");
    }
    return source_->NextCycle();
  }

  std::vector<prob::CountDistribution> next;
  next.reserve(baseline_.size());
  switch (spec_.kind) {
    case StreamKind::kJitter:
      for (const prob::CountDistribution& d : baseline_) {
        ASSIGN_OR_RETURN(prob::CountDistribution jittered,
                         prob::JitterPmf(d, spec_.drift_amplitude, rng_));
        next.push_back(std::move(jittered));
      }
      break;
    case StreamKind::kRandomWalk:
      for (const prob::CountDistribution& d : current_) {
        ASSIGN_OR_RETURN(prob::CountDistribution jittered,
                         prob::JitterPmf(d, spec_.drift_amplitude, rng_));
        next.push_back(std::move(jittered));
      }
      current_ = next;
      break;
    case StreamKind::kSeasonal: {
      if (spec_.season_period < 1) {
        return util::InvalidArgumentError(
            "season_period must be at least 1, got " +
            std::to_string(spec_.season_period));
      }
      const double phase = 2.0 * M_PI * static_cast<double>(cycle_) /
                           static_cast<double>(spec_.season_period);
      const double theta = spec_.drift_amplitude * std::sin(phase);
      for (const prob::CountDistribution& d : baseline_) {
        ASSIGN_OR_RETURN(prob::CountDistribution tilted,
                         ExponentialTilt(d, theta));
        ASSIGN_OR_RETURN(
            prob::CountDistribution jittered,
            prob::JitterPmf(tilted, 0.2 * spec_.drift_amplitude, rng_));
        next.push_back(std::move(jittered));
      }
      break;
    }
    case StreamKind::kExternal:
      break;  // handled above
  }
  return next;
}

}  // namespace auditgame::scenario
