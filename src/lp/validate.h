#ifndef AUDIT_GAME_LP_VALIDATE_H_
#define AUDIT_GAME_LP_VALIDATE_H_

#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "util/status.h"

namespace auditgame::lp {

/// Independent checks applied to a claimed-optimal solution. Used in tests
/// and available to callers who want defense in depth around the solver.
struct ValidationOptions {
  double feasibility_tolerance = 1e-6;
  double duality_gap_tolerance = 1e-6;
};

/// Verifies primal feasibility: every row satisfied within tolerance and
/// every variable within its bounds.
util::Status CheckPrimalFeasibility(const LpModel& model,
                                    const LpSolution& solution,
                                    const ValidationOptions& options = {});

/// Verifies dual sign conventions (>= rows have dual >= 0, <= rows have
/// dual <= 0 for minimization) and strong duality: the dual objective
/// implied by `solution.dual` (plus bound contributions recovered from
/// reduced costs) matches the primal objective within tolerance.
util::Status CheckOptimality(const LpModel& model, const LpSolution& solution,
                             const ValidationOptions& options = {});

}  // namespace auditgame::lp

#endif  // AUDIT_GAME_LP_VALIDATE_H_
