#ifndef AUDIT_GAME_CORE_ISHM_H_
#define AUDIT_GAME_CORE_ISHM_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/cggs.h"
#include "core/detection.h"
#include "core/game.h"
#include "core/policy.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::core {

/// Column-generation work behind one evaluation; stays zero for
/// evaluators that do not run CGGS.
struct CggsWork {
  int lp_solves = 0;
  /// Master solves that resumed from the previous basis with no phase-1
  /// pivot.
  int warm_lp_solves = 0;
  int columns_generated = 0;
  /// Simplex pivots summed over the master solves.
  long master_lp_iterations = 0;
  /// Master solves re-run cold after failing the primal-residual check.
  int cold_retries = 0;
  double pricing_seconds = 0.0;

  void Add(const CggsWork& other) {
    lp_solves += other.lp_solves;
    warm_lp_solves += other.warm_lp_solves;
    columns_generated += other.columns_generated;
    master_lp_iterations += other.master_lp_iterations;
    cold_retries += other.cold_retries;
    pricing_seconds += other.pricing_seconds;
  }
};

/// A lower bound on an evaluator's objective at a threshold vector, or
/// -infinity when it has none.
using ObjectiveBound = std::function<double(const std::vector<double>&)>;

/// What an ISHM threshold-vector probe returns.
struct ThresholdEvaluation {
  double objective = 0.0;
  AuditPolicy policy;
  CggsWork work;
  /// Optional lower bound on the evaluator's objective at *any* threshold
  /// vector, valid while the evaluator that returned it lives. SolveIshm
  /// takes it from the results, so it survives wrappers that pass them
  /// through unchanged, and skips probes it proves cannot win.
  ObjectiveBound lower_bound;
};

/// Pluggable evaluator: given a threshold vector, produce the (approximate)
/// optimal ordering mixture and its objective. Implementations below wrap
/// the full LP (exact over all |T|! orderings) and CGGS.
using ThresholdEvaluator =
    std::function<util::StatusOr<ThresholdEvaluation>(const std::vector<double>&)>;

/// Options for the Iterative Shrink Heuristic Method (Algorithm 2).
struct IshmOptions {
  /// The paper's step size epsilon in (0, 1); shrink ratios are
  /// max(0, 1 - i*eps) for i = 1..ceil(1/eps).
  double step_size = 0.1;
  /// Evaluate thresholds floored to whole audits (b_t -> floor(b_t/C_t)*C_t).
  /// Matches the integer thresholds reported in the paper's tables and
  /// makes the search landscape finite.
  bool floor_to_audit_cost = true;
  /// Warm start: begin the shrink search at this raw threshold vector
  /// instead of the paper's full-coverage upper bounds (entries are clamped
  /// to [0, upper bound] and the vector is evaluated before any shrink, so
  /// a shrink is accepted only if it strictly beats the seed). Empty = cold
  /// start; otherwise must have one entry per type. Used by the serving
  /// layer to re-solve after a small distribution drift, seeding from the
  /// previously optimal thresholds (see docs/DESIGN.md "Serving layer").
  std::vector<double> initial_thresholds;
  /// Cap on the shrink-subset size lh (0 = no cap, the paper's |T|).
  /// Warm-started re-solves set 1: starting near an optimum, single-type
  /// local repair suffices and skips the exponential subset sweep.
  int max_subset_size = 0;
};

/// Search-effort counters (Table VII reports `evaluations`).
struct IshmStats {
  /// Threshold vectors submitted for evaluation (paper's "number of
  /// threshold vectors checked").
  int64_t evaluations = 0;
  /// Distinct effective vectors actually evaluated (cache misses).
  int64_t distinct_evaluations = 0;
  /// Submissions skipped, without calling the evaluator, because the
  /// evaluator's lower bound showed they could not win (counted in
  /// `evaluations`, never in `distinct_evaluations`).
  int64_t pruned = 0;
  /// Accepted improvements.
  int improvements = 0;
  /// Evaluator work summed over the distinct evaluations (memo hits cost
  /// nothing).
  CggsWork cggs;
};

struct IshmResult {
  double objective = 0.0;
  /// Raw (un-floored) threshold trajectory endpoint.
  std::vector<double> thresholds;
  /// Effective thresholds actually evaluated (floored when enabled).
  std::vector<double> effective_thresholds;
  AuditPolicy policy;
  IshmStats stats;
};

/// Runs ISHM: initialize every threshold at the full-coverage upper bound
/// C_t * max(F_t support), then iteratively shrink subsets of thresholds
/// (subset size lh = 1..|T|, ratio 1 - i*eps), accepting any strict
/// improvement of the evaluator objective and restarting at lh = 1.
/// Identical effective vectors are evaluated once (memoized). Within a
/// round, a later subset replaces the round's best only when it wins by
/// more than 1e-9 * (1 + |best|): near-ties go to the first subset in the
/// fixed order, so rounding noise in the evaluator (a warm-started LP, a
/// pmf that went through JSON) cannot steer the search path.
///
/// When an evaluation carries a lower_bound, a probe whose bound is at
/// least min(round best - 1e-9 * (1 + |round best|), incumbent - 1e-12)
/// is skipped: it could neither replace the round's best nor beat the
/// incumbent. The skip is memoized with its bound and re-tested against
/// the cutoff of the moment when the vector comes up again.
util::StatusOr<IshmResult> SolveIshm(const GameInstance& instance,
                                     const ThresholdEvaluator& evaluator,
                                     const IshmOptions& options = {});

/// Evaluator running the exact LP over all |T|! orderings. Suitable for
/// small |T| (controlled evaluation).
ThresholdEvaluator MakeFullLpEvaluator(const CompiledGame& game,
                                       DetectionModel& detection);

/// CGGS over one ISHM sweep: a single restricted master lives across all
/// probes. Each Solve installs the probe's thresholds, re-prices the
/// master's columns in place (RestrictedMasterLp::Reprice) and runs the
/// pricing loop from the previous probe's optimal basis, so a probe
/// starts from its neighbour's columns and basis instead of a cold LP.
/// When a probe starts with the master past 4T+8 columns (beyond that,
/// extra columns slow the master more than they help), the master is
/// rebuilt from the previous probe's policy support plus the seed
/// orderings in CggsOptions::initial_orderings. Results depend only on the
/// sequence of probes.
///
/// With exact detection and at most kMaxBoundTypes types, the sweep also
/// bounds probes before solving them (LowerBound): the duals of its last
/// kDualRing solved probes, projected to dual feasibility, give lower
/// bounds on any vector's LP optimum (MinOverOrderings). Every probe then
/// refreshes the detection model's subset table (only the sets a moved
/// threshold touches), and the master and pricing read Pal from it.
class CggsSweep {
 public:
  /// `game` and `detection` must outlive the sweep; `detection`'s
  /// thresholds are overwritten by every Solve.
  CggsSweep(const CompiledGame& game, DetectionModel& detection,
            CggsOptions options);

  /// Above this many types the per-probe subset table costs more than
  /// the probes the bound skips.
  static constexpr int kMaxBoundTypes = 7;
  /// Solved probes whose duals LowerBound tries.
  static constexpr int kDualRing = 8;

  util::StatusOr<CggsResult> Solve(const std::vector<double>& thresholds);

  /// True when LowerBound can return finite bounds (exact detection, at
  /// most kMaxBoundTypes types).
  bool bounded() const { return !dual_ring_.empty(); }

  /// A lower bound on the LP optimum over all orderings at `thresholds`,
  /// hence on Solve's objective there: the largest MinOverOrderings over
  /// the duals of the last kDualRing solves. -infinity before the first
  /// solve or when !bounded(). Installs `thresholds` in `detection`, which
  /// does not change what a later Solve computes.
  double LowerBound(const std::vector<double>& thresholds);

  /// Columns in the live master (0 before the first Solve).
  int num_columns() const {
    return master_.has_value() ? master_->num_orderings() : 0;
  }
  /// Times the master was rebuilt past the column cap.
  int rebuilds() const { return rebuilds_; }

 private:
  const CompiledGame& game_;
  DetectionModel& detection_;
  CggsOptions options_;
  std::optional<RestrictedMasterLp> master_;
  // The last master solution, kept so its buffers persist across probes.
  RestrictedLpSolution solution_;
  // The previous probe's policy support: the rebuild seed.
  std::vector<std::vector<int>> support_;
  int rebuilds_ = 0;
  // The projected duals of the last solves, oldest overwritten first;
  // sized once (kDualRing entries) when the sweep is bounded, else empty.
  std::vector<DualUtility> dual_ring_;
  int ring_filled_ = 0;
  int ring_next_ = 0;
  std::vector<double> dp_scratch_;
};

/// Evaluator running CGGS through one CggsSweep, so every probe of an ISHM
/// search reuses the previous probe's master LP. Reports each probe's
/// CGGS counters in ThresholdEvaluation::work, and the sweep's LowerBound
/// as ThresholdEvaluation::lower_bound when the sweep is bounded.
ThresholdEvaluator MakeCggsEvaluator(const CompiledGame& game,
                                     DetectionModel& detection,
                                     CggsOptions options = {});

}  // namespace auditgame::core

#endif  // AUDIT_GAME_CORE_ISHM_H_
