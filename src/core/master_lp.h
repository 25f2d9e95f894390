#ifndef AUDIT_GAME_CORE_MASTER_LP_H_
#define AUDIT_GAME_CORE_MASTER_LP_H_

#include <vector>

#include "core/detection.h"
#include "core/game.h"
#include "core/game_lp.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::core {

/// The restricted master LP of the CGGS column-generation loop (Eq. 5 over
/// a growing candidate set Q), kept *alive across pricing iterations*:
///
///   min  sum_g w_g u_g
///   s.t. u_g - sum_{o in Q} p_o Ua(o, b, <g,v>) >= 0   per envelope victim
///        sum_o p_o = 1,  p_o >= 0
///
/// Rows exist only for each group's envelope (AdversaryGroup::envelope):
/// a dominated victim's constraint is implied by its dominator's, so the
/// optimum is that of the LP over every victim.
///
/// Each pricing round appends the newly priced ordering as one column
/// (AddOrdering) and re-solves from the previous optimal basis (SolveInto).
/// Appending a column cannot break primal feasibility of the old basis —
/// the new variable enters nonbasic at zero — so the warm re-solve skips
/// phase 1 entirely and typically needs a handful of pivots, where the
/// pre-incremental path paid a full cold two-phase solve per round.
///
/// A master also outlives a threshold change: after
/// DetectionModel::SetThresholds, Reprice() recomputes every column's Pal
/// vector (read from the subset table when it is current) and overwrites
/// its victim-row coefficients in place. The sparsity pattern and the
/// basis are kept, so the next SolveInto starts from the previous optimum —
/// phase 1 repairs it when the new coefficients made it
/// primal-infeasible, and the solver falls back to a cold start when they
/// made it singular. The ISHM evaluator (core/ishm.h) keeps one
/// master for a whole threshold sweep this way.
class RestrictedMasterLp {
 public:
  struct Stats {
    int solves = 0;
    /// Solves that resumed from the previous basis with no phase-1 pivot.
    int warm_solves = 0;
    /// Solves that resumed from the previous basis but paid phase-1
    /// pivots to restore primal feasibility (typical after a Reprice).
    int repaired_solves = 0;
    /// Warm solves whose optimum failed the primal-residual check and
    /// were re-solved from the cold basis (see SolveInto).
    int cold_retries = 0;
    /// Simplex iterations summed over all solves (both phases, and both
    /// attempts of a cold retry).
    long iterations = 0;
  };

  /// `game` and `detection` must outlive the master. `expected_orderings`
  /// is the expected number of AddOrdering calls over the master's
  /// lifetime — an allocation hint only (CGGS passes its column cap): the
  /// model's row storage is reserved once here so appending columns never
  /// regrows it. Appending beyond the hint stays correct.
  RestrictedMasterLp(const CompiledGame& game, const DetectionModel& detection,
                     int expected_orderings = 0);

  /// Appends `ordering` as a new master column. The caller is responsible
  /// for deduplication (a duplicate column is harmless but wasteful).
  util::Status AddOrdering(const std::vector<int>& ordering);

  /// Re-prices every column against the thresholds now installed in
  /// `detection`, overwriting its victim-row coefficients in place at
  /// their known entry positions.
  util::Status Reprice();

  int num_orderings() const { return static_cast<int>(orderings_.size()); }
  /// The columns' orderings, in the order they were added (the order of
  /// RestrictedLpSolution::ordering_probs).
  const std::vector<std::vector<int>>& orderings() const { return orderings_; }
  /// True iff `ordering` is already a column (linear scan: Q stays small).
  bool HasOrdering(const std::vector<int>& ordering) const;

  /// Solves the current restricted master into `out`; requires at least
  /// one ordering. Re-solves from the previous optimal basis when one is
  /// available, with the revised simplex's default options. `out`'s
  /// vectors are resized in place, so a caller that keeps one
  /// RestrictedLpSolution across rounds (CGGS) re-solves without touching
  /// the heap once the buffers reach steady-state size. Every optimum is
  /// checked against the model's rows and bounds in O(nnz)
  /// (lp::CheckPrimalFeasibility); a warm solve that fails the check is
  /// retried once from the cold basis (Stats::cold_retries), and a cold
  /// one that fails it is an error.
  util::Status SolveInto(RestrictedLpSolution& out);

  const Stats& stats() const { return stats_; }

  /// The master LP as currently built (tests hand it to an oracle solver).
  const lp::LpModel& model() const { return model_; }

  /// The linear utility form of the master's victim rows, in row order.
  const UtilityRows& utility_rows() const { return rows_; }

 private:
  const CompiledGame& game_;
  const DetectionModel& detection_;
  UtilityRows rows_;

  lp::LpModel model_;
  std::vector<int> po_vars_;
  std::vector<int> u_vars_;
  // victim_rows_[g][k]: the row of group g's k-th envelope victim.
  std::vector<std::vector<int>> victim_rows_;
  int convexity_row_ = -1;
  std::vector<std::vector<int>> orderings_;

  lp::Basis basis_;
  bool has_basis_ = false;
  Stats stats_;

  // Writes the victim-row coefficients -Ua = slope(r) . Pal - constant(r)
  // of column `column` (an index into orderings_) from the Pal vector in
  // `pal_scratch_`: appended on the column's first write, overwritten at
  // entry 1 + column after that.
  void WriteUtilities(int column, bool append);

  // Reused across solves/additions so the steady-state pricing loop is
  // allocation-free: the revised simplex refills `revised_` in place (its
  // basis buffers swap with `basis_` each accepted solve), and AddOrdering
  // and Reprice evaluate Pal into `pal_prefix_`/`pal_scratch_`.
  lp::RevisedSolution revised_;
  DetectionModel::Prefix pal_prefix_;
  std::vector<double> pal_scratch_;
};

}  // namespace auditgame::core

#endif  // AUDIT_GAME_CORE_MASTER_LP_H_
