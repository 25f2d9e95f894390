#ifndef AUDIT_GAME_TESTS_LP_ORACLE_DENSE_TABLEAU_H_
#define AUDIT_GAME_TESTS_LP_ORACLE_DENSE_TABLEAU_H_

#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "util/statusor.h"

namespace auditgame::lp {

/// Dense two-phase primal simplex: the independent oracle the tests check
/// lp::RevisedSimplex against. It shares no code with the production
/// solver beyond LpModel and the LpSolution contract, so an agreement
/// between the two is evidence, not an echo.
///
/// Design notes:
///  * The model is converted to computational standard form
///    (min c'x, Ax = b, x >= 0) by shifting/splitting variables and adding
///    slack/surplus and artificial columns.
///  * Pricing is Dantzig (most negative reduced cost) with an automatic,
///    permanent switch to Bland's rule when the objective stalls, which
///    guarantees termination.
///  * Duals are recovered as y = c_B * B^{-1}, where B^{-1} is read off the
///    final tableau at the positions of the initial identity basis.
///
/// This is exact (up to floating point) and comfortably fast for the game
/// LPs in this project (hundreds of rows, hundreds of columns). It is not
/// intended for large sparse industrial LPs.
class DenseTableau {
 public:
  struct Options {
    /// Hard cap on total pivots across both phases.
    int max_iterations = 200000;
    /// Pivot magnitude tolerance.
    double pivot_tolerance = 1e-9;
    /// Feasibility / optimality tolerance on reduced costs and residuals.
    double tolerance = 1e-8;
  };

  /// Solves `model`. Returns an error status only for malformed models;
  /// infeasible/unbounded outcomes are reported in LpSolution::status.
  static util::StatusOr<LpSolution> Solve(const LpModel& model,
                                          const Options& options);
  static util::StatusOr<LpSolution> Solve(const LpModel& model) {
    return Solve(model, Options());
  }
};

}  // namespace auditgame::lp

#endif  // AUDIT_GAME_TESTS_LP_ORACLE_DENSE_TABLEAU_H_
