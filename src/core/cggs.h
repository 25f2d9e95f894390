#ifndef AUDIT_GAME_CORE_CGGS_H_
#define AUDIT_GAME_CORE_CGGS_H_

#include <cstdint>
#include <vector>

#include "core/detection.h"
#include "core/game.h"
#include "core/master_lp.h"
#include "core/policy.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::core {

/// Options for Column Generation Greedy Search (Algorithm 1).
struct CggsOptions {
  /// Cap on generated columns (orderings) — safety net; the search normally
  /// terminates when no column with negative reduced cost is found.
  int max_columns = 200;
  /// A column enters only if its reduced cost is below -tolerance.
  double reduced_cost_tolerance = 1e-7;
  /// Extra random candidate orderings priced per iteration, alongside the
  /// greedy one. The paper's pricing subproblem is itself hard; a few random
  /// probes make the heuristic noticeably more robust at negligible cost.
  int random_probes = 2;
  uint64_t seed = 7;
  /// Read by nothing; kept while perfbench/perf_client.cc assigns it.
  /// Pricing runs on the caller's thread (see docs/DESIGN.md "Pricing
  /// determinism").
  int pricing_threads = 1;
  /// Optional warm start: orderings to seed Q with (e.g. the support of a
  /// previously served policy). The ISHM sweep re-seeds its master with
  /// them whenever it rebuilds it (see CggsSweep).
  std::vector<std::vector<int>> initial_orderings;
};

/// Result of a CGGS solve.
struct CggsResult {
  double objective = 0.0;
  AuditPolicy policy;
  /// All columns considered (Q at termination) — useful for warm starts.
  /// Filled by SolveCggs only; SolveCggsOnMaster leaves Q in the master.
  std::vector<std::vector<int>> columns;
  int lp_solves = 0;
  int columns_generated = 0;
  /// Master LP solves that resumed from the previous basis without a
  /// phase-1 pivot (lp_solves - 1 in a healthy one-shot run).
  int warm_lp_solves = 0;
  /// Simplex iterations summed over all master solves.
  long master_lp_iterations = 0;
  /// Master solves re-run from the cold basis after their warm optimum
  /// failed the primal-residual check (RestrictedMasterLp::SolveInto).
  int cold_retries = 0;
  /// Wall-clock spent in the pricing rounds (greedy growth + probe
  /// generation + reduced-cost evaluation).
  double pricing_seconds = 0.0;
};

/// Solves the fixed-threshold game LP by column generation (Algorithm 1 of
/// the paper): repeatedly solve the restricted master over Q, then greedily
/// build a new ordering that minimizes reduced cost under the current duals
/// (appending one type at a time), and add it to Q while its reduced cost
/// is negative.
util::StatusOr<CggsResult> SolveCggs(const CompiledGame& game,
                                     DetectionModel& detection,
                                     const std::vector<double>& thresholds,
                                     const CggsOptions& options = {});

/// Appends to `master` each ordering of `seeds` that is a permutation of
/// the game's types and not already a column. Seeds arrive from cached
/// policies that may predate an instance reshape; anything else would
/// corrupt the master.
util::Status AddSeedOrderings(const CompiledGame& game,
                              const std::vector<std::vector<int>>& seeds,
                              RestrictedMasterLp& master);

/// Algorithm 1's pricing loop on a caller-supplied master whose columns
/// are priced against the thresholds installed in `detection` (seeded
/// with the identity ordering when it has none). Callers build `master`
/// with options.max_columns as its column hint, as SolveCggs does.
/// Ignores options.initial_orderings (seed the master instead). The
/// counters in the result are this call's share of the master's lifetime
/// stats, and `columns` stays empty: Q is master.orderings(). `solution`
/// receives every master solve in place and ends holding the last one,
/// duals included; a caller that keeps it across calls reuses its buffers.
util::StatusOr<CggsResult> SolveCggsOnMaster(const CompiledGame& game,
                                             const DetectionModel& detection,
                                             const CggsOptions& options,
                                             RestrictedMasterLp& master,
                                             RestrictedLpSolution& solution);

/// The dual-weighted adversary utility sum_{g,v} y_gv Ua(Pal, <g,v>) of a
/// set of victim duals, written as an affine function of Pal:
///   constant - sum_t slope[t] * Pal[t],
/// the y-weighted sum of a UtilityRows' rows.
struct DualUtility {
  double constant = 0.0;
  std::vector<double> slope;

  /// constant - slope . pal, for one Pal entry per type.
  double Value(const double* pal) const;
};

/// The DualUtility of the positive entries of `victim_duals` (indexed
/// like RestrictedLpSolution's) over `rows` (the game's), written into
/// `out` with its slope resized in place: CGGS pricing builds one per
/// round, and a column's reduced cost is out.Value(Pal) minus the
/// convexity dual.
void PricingDualUtility(const CompiledGame& game, const UtilityRows& rows,
                        const std::vector<std::vector<double>>& victim_duals,
                        DualUtility& out);

/// Projects `victim_duals` (indexed like RestrictedLpSolution's) onto the
/// master LP's dual-feasible set and writes their DualUtility over `rows`
/// (the game's) into `out`, resizing its slope in place. Only envelope victims count; their duals
/// are clamped at 0 and scaled so each group's sum is its weight w_g (at
/// most w_g for a group that can opt out). A group whose duals sum to 0
/// gets w_g spread evenly over its envelope.
void ProjectDualUtility(const CompiledGame& game, const UtilityRows& rows,
                        const std::vector<std::vector<double>>& victim_duals,
                        DualUtility& out);

/// The largest, over the `count` entries of `ring`, of each entry's
/// minimum over every ordering of the types, at the thresholds of the
/// subset table `detection` last refreshed (RefreshSubsetTable). One DP
/// pass over the type sets serves every entry f:
/// best_f(S) = max over t in S of best_f(S \ t) + f.slope[t] * Pal(t | S \ t),
/// and f's minimum is f.constant - best_f(all types). With entries from
/// ProjectDualUtility, each minimum is a lower bound on the LP optimum over
/// all orderings at those thresholds, and so on any CGGS objective there
/// (weak duality). -infinity when `count` is 0. `scratch` is resized in
/// place to (T + 2^T) * count entries.
double MinOverOrderings(const DetectionModel& detection,
                        const DualUtility* ring, size_t count,
                        std::vector<double>& scratch);

}  // namespace auditgame::core

#endif  // AUDIT_GAME_CORE_CGGS_H_
