#include "core/game_lp.h"

#include "core/master_lp.h"
#include "util/combinatorics.h"

namespace auditgame::core {

// One-shot convenience wrapper: build a RestrictedMasterLp over the full
// candidate set and solve once. Column-generation callers (CGGS) keep the
// master alive across pricing iterations instead — see core/master_lp.h.
util::StatusOr<RestrictedLpSolution> SolveRestrictedGameLp(
    const CompiledGame& game, const DetectionModel& detection,
    const std::vector<std::vector<int>>& orderings) {
  if (orderings.empty()) {
    return util::InvalidArgumentError("no candidate orderings");
  }
  RestrictedMasterLp::Options options;
  options.expected_orderings = static_cast<int>(orderings.size());
  RestrictedMasterLp master(game, detection, options);
  for (const auto& ordering : orderings) {
    RETURN_IF_ERROR(master.AddOrdering(ordering));
  }
  return master.Solve();
}

util::StatusOr<FullLpResult> SolveFullGameLp(
    const CompiledGame& game, DetectionModel& detection,
    const std::vector<double>& thresholds) {
  RETURN_IF_ERROR(detection.SetThresholds(thresholds));
  const std::vector<std::vector<int>> orderings =
      util::AllPermutations(game.num_types);
  ASSIGN_OR_RETURN(RestrictedLpSolution solution,
                   SolveRestrictedGameLp(game, detection, orderings));
  FullLpResult result;
  result.objective = solution.objective;
  result.policy.thresholds = thresholds;
  result.policy.budget = detection.budget();
  // Keep only the support of the mixture.
  for (size_t o = 0; o < orderings.size(); ++o) {
    if (solution.ordering_probs[o] > 1e-9) {
      result.policy.orderings.push_back(orderings[o]);
      result.policy.probabilities.push_back(solution.ordering_probs[o]);
    }
  }
  // Renormalize tiny numerical drift.
  double total = 0.0;
  for (double p : result.policy.probabilities) total += p;
  if (total > 0) {
    for (double& p : result.policy.probabilities) p /= total;
  }
  return result;
}

}  // namespace auditgame::core
