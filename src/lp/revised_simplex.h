#ifndef AUDIT_GAME_LP_REVISED_SIMPLEX_H_
#define AUDIT_GAME_LP_REVISED_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::lp {

/// Termination status of a solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* SolveStatusToString(SolveStatus status);

/// Result of solving an LpModel.
struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;

  /// c'x* + objective constant (meaningful when status == kOptimal).
  double objective = 0.0;

  /// Optimal primal values, one per model variable.
  std::vector<double> primal;

  /// Dual values (shadow prices), one per model constraint, oriented for
  /// the original row: dual[i] = d(objective)/d(rhs[i]). For a minimization
  /// problem, duals of >= rows are >= 0 and duals of <= rows are <= 0 at
  /// optimality.
  std::vector<double> dual;

  /// Reduced costs in the original variable space:
  ///   rc[j] = c[j] - sum_i dual[i] * a[i][j].
  /// For a non-basic variable at its lower bound rc[j] >= 0 (minimization).
  std::vector<double> reduced_cost;

  /// Simplex iterations used in each phase.
  int phase1_iterations = 0;
  int phase2_iterations = 0;
};

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
/// model, or the recorded basic set is singular — some LU pivot below
/// 1e-7 times the basis's largest entry — the solver silently falls back
/// to a cold start: a warm start never changes what is solved, only where
/// the search begins.
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

/// Bounded-variable revised simplex: the library's LP solver.
///
/// Variables live at their bounds directly: doubly-bounded variables cost
/// no extra rows, and free variables are not split into differences of
/// nonnegatives. The basis is held as a dense LU factorization with
/// product-form (eta) updates and periodic refactorization, so a pivot
/// costs O(m^2 + nnz) instead of a full O(m*n) tableau sweep, and a warm
/// re-solve after appending columns reuses the previous basis instead of
/// restarting phase 1.
///
/// Phase 1 minimizes the sum of bound violations of the basic variables
/// (composite objective, recomputed every iteration); when the starting
/// basis — the all-logical basis on a cold start, the snapshot on a warm
/// start — is already primal-feasible, phase 1 performs zero pivots.
///
/// Solve returns an error status only for malformed models; infeasible,
/// unbounded and iteration-capped outcomes are reported in
/// LpSolution::status.
class RevisedSimplex {
 public:
  struct Options {
    /// Hard cap on total pivots across both phases.
    int max_iterations = 200000;
    /// Pivot magnitude tolerance.
    double pivot_tolerance = 1e-9;
    /// Feasibility / optimality tolerance on reduced costs and residuals.
    double tolerance = 1e-8;
    /// Basis pivots between LU refactorizations.
    int refactor_interval = 64;
  };

  /// Solves `model`. When `warm_start` is non-null and compatible, the
  /// solve resumes from it.
  static util::StatusOr<RevisedSolution> Solve(const LpModel& model,
                                               const Options& options,
                                               const Basis* warm_start = nullptr);
  static util::StatusOr<RevisedSolution> Solve(const LpModel& model) {
    return Solve(model, Options(), nullptr);
  }

  /// Allocation-reusing form for re-solve loops (the CGGS master): `out`'s
  /// solution and basis buffers are cleared and refilled in place, so a
  /// caller that keeps one RevisedSolution across rounds solves without
  /// touching the heap once the buffers reach steady-state size. The
  /// solver's own working memory is per thread and keeps its capacity
  /// across solves, so it stops allocating once the thread's LPs stop
  /// growing. `out` may not alias `warm_start`'s basis.
  static util::Status SolveInto(const LpModel& model, const Options& options,
                                const Basis* warm_start, RevisedSolution& out);
};

}  // namespace auditgame::lp

#endif  // AUDIT_GAME_LP_REVISED_SIMPLEX_H_
