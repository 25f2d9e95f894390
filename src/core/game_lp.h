#ifndef AUDIT_GAME_CORE_GAME_LP_H_
#define AUDIT_GAME_CORE_GAME_LP_H_

#include <vector>

#include "core/detection.h"
#include "core/game.h"
#include "core/policy.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::core {

/// Solution of the restricted master LP (Eq. 5 of the paper, restricted to
/// a set Q of candidate orderings, with the thresholds b fixed inside
/// `detection`):
///
///   min  sum_g w_g u_g
///   s.t. u_g >= sum_{o in Q} p_o Ua(o, b, <g,v>)   for every victim row
///        sum_o p_o = 1,  p_o >= 0
///        u_g >= 0 for groups that can opt out
///
/// The duals are exactly what CGGS pricing needs.
struct RestrictedLpSolution {
  double objective = 0.0;
  /// p_o per candidate ordering (same order as the input Q).
  std::vector<double> ordering_probs;
  /// u_g per compiled group.
  std::vector<double> group_utilities;
  /// Dual y_{g,v} >= 0 per (group, victim), indexed [group][victim];
  /// exactly 0.0 for victims off the group's envelope (they have no row).
  std::vector<std::vector<double>> victim_duals;
  /// Dual of the convexity row sum_o p_o = 1.
  double convexity_dual = 0.0;
};

/// Solves the restricted LP for the ordering set `orderings`. `detection`
/// must already have thresholds installed (SetThresholds).
util::StatusOr<RestrictedLpSolution> SolveRestrictedGameLp(
    const CompiledGame& game, const DetectionModel& detection,
    const std::vector<std::vector<int>>& orderings);

/// Convenience: solves the *full* LP over every permutation of the types
/// (|T|! orderings) — exact but only sensible for small |T|; the controlled
/// evaluation (Tables III-VII) uses it as ground truth for the ordering
/// distribution. Returns the assembled policy.
struct FullLpResult {
  double objective = 0.0;
  AuditPolicy policy;
};
util::StatusOr<FullLpResult> SolveFullGameLp(const CompiledGame& game,
                                             DetectionModel& detection,
                                             const std::vector<double>& thresholds);

}  // namespace auditgame::core

#endif  // AUDIT_GAME_CORE_GAME_LP_H_
