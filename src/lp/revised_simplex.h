#ifndef AUDIT_GAME_LP_REVISED_SIMPLEX_H_
#define AUDIT_GAME_LP_REVISED_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "util/statusor.h"

namespace auditgame::lp {

/// Where a column rests relative to the current basis. Nonbasic variables
/// sit at a finite bound (or at zero when free in both directions); basic
/// variables are solved for from the constraints.
enum class VarStatus : uint8_t {
  kAtLower,
  kAtUpper,
  kNonbasicFree,
  kBasic,
};

/// Snapshot of a simplex basis: one status per structural variable (in
/// model order) and one per constraint's logical (slack) variable.
///
/// Warm-start contract (see docs/DESIGN.md "LP layer"): a Basis taken from
/// a solved model M may be passed back to RevisedSimplex::Solve for a model
/// M' obtained from M by *appending variables and coefficients in existing
/// rows* (the column-generation pattern) or by *overwriting coefficients in
/// place* (re-pricing a master after a threshold change; the snapshot may
/// then be primal-infeasible, which phase 1 repairs). Appended variables
/// start nonbasic at their lower bound when finite, else their upper bound,
/// else at zero.
/// The constraint set must be unchanged; if the snapshot does not fit the
/// model, or the recorded basic set is singular, the solver silently falls
/// back to a cold start — a warm start never changes what is solved, only
/// where the search begins.
struct Basis {
  std::vector<VarStatus> structural;
  std::vector<VarStatus> logical;

  bool empty() const { return structural.empty() && logical.empty(); }
};

/// Result of a revised-simplex solve: the usual LpSolution plus the final
/// basis, which the caller can feed back after appending columns.
struct RevisedSolution {
  LpSolution solution;
  /// Valid when solution.status == kOptimal (empty otherwise).
  Basis basis;
  /// True when the warm-start basis was accepted and was still
  /// primal-feasible, so phase 1 performed zero pivots. False for cold
  /// starts, rejected snapshots, and accepted-but-infeasible snapshots
  /// (which pay a real phase 1).
  bool warm_started = false;
  /// True when the warm-start basis fit the model and was nonsingular, so
  /// the solve began from it even if phase 1 then had to repair a primal
  /// infeasibility. False for cold starts and rejected snapshots.
  bool basis_accepted = false;
};

/// Bounded-variable revised simplex.
///
/// Unlike the dense tableau backend, variables live at their bounds
/// directly: doubly-bounded variables cost no extra rows, and free
/// variables are not split into differences of nonnegatives. The basis is
/// held as a dense LU factorization with product-form (eta) updates and
/// periodic refactorization, so a pivot costs O(m^2 + nnz) instead of a
/// full O(m*n) tableau sweep, and a warm re-solve after appending columns
/// reuses the previous basis instead of restarting phase 1.
///
/// Phase 1 minimizes the sum of bound violations of the basic variables
/// (composite objective, recomputed every iteration); when the starting
/// basis — the all-logical basis on a cold start, the snapshot on a warm
/// start — is already primal-feasible, phase 1 performs zero pivots.
class RevisedSimplex {
 public:
  /// Solves `model` with the given options (SimplexSolver::Options is
  /// shared between backends; `options.backend` is ignored here). When
  /// `warm_start` is non-null and compatible, the solve resumes from it.
  static util::StatusOr<RevisedSolution> Solve(const LpModel& model,
                                               const SimplexSolver::Options& options,
                                               const Basis* warm_start = nullptr);
  static util::StatusOr<RevisedSolution> Solve(const LpModel& model) {
    return Solve(model, SimplexSolver::Options(), nullptr);
  }

  /// Allocation-reusing form for re-solve loops (the CGGS master): `out`'s
  /// solution and basis buffers are cleared and refilled in place, so a
  /// caller that keeps one RevisedSolution across rounds solves without
  /// touching the heap once the buffers reach steady-state size. `out` may
  /// not alias `warm_start`'s basis.
  static util::Status SolveInto(const LpModel& model,
                                const SimplexSolver::Options& options,
                                const Basis* warm_start, RevisedSolution& out);
};

}  // namespace auditgame::lp

#endif  // AUDIT_GAME_LP_REVISED_SIMPLEX_H_
