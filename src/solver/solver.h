#ifndef AUDIT_GAME_SOLVER_SOLVER_H_
#define AUDIT_GAME_SOLVER_SOLVER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/brute_force.h"
#include "core/cggs.h"
#include "core/detection.h"
#include "core/game.h"
#include "core/ishm.h"
#include "core/policy.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::util {
class Serializer;
}  // namespace auditgame::util

namespace auditgame::solver {

/// The unified solver seam. The paper's algorithms form a family of
/// interchangeable backends for the same problem — find the auditor's
/// optimal (thresholds, ordering-mixture) policy — differing only in what
/// they search and how exactly:
///
///   name          searches thresholds?  ordering mixture      exact?
///   ------------  --------------------  --------------------  -----------
///   brute-force   all integer vectors   full LP (|T|! cols)   yes
///   full-lp       no (caller fixes b)   full LP (|T|! cols)   given b
///   cggs          no (caller fixes b)   column generation     heuristic
///   ishm-full     ISHM (Alg. 2)         full LP               heuristic
///   ishm-cggs     ISHM (Alg. 2)         CGGS (Alg. 1)         heuristic
///
/// Callers select a backend by name through the registry
/// (solver::Create("ishm-cggs", options)) instead of hand-wiring the free
/// functions in core/; see docs/DESIGN.md "Solver layer".

/// Construction-time configuration. Every backend reads only its slice;
/// unused fields are ignored, so one options object can configure a whole
/// batch of heterogeneous solvers.
struct SolverOptions {
  core::IshmOptions ishm;
  core::CggsOptions cggs;
  core::BruteForceOptions brute_force;
};

/// Search seeds carried over from a previously solved, nearby request —
/// e.g. the same game one audit cycle ago, before a small alert-count
/// drift. Backends use the parts they understand and ignore the rest;
/// empty fields mean cold start. Seeding never changes what a backend
/// searches for, only where it starts, so a warm solve is a valid solve
/// of the *current* request (see docs/DESIGN.md "Serving layer").
struct WarmStart {
  /// ISHM backends: raw threshold vector to start the shrink search at.
  std::vector<double> thresholds;
  /// CGGS-based backends: orderings seeding the column pool (typically the
  /// support of the previous policy). Invalid orderings are dropped.
  std::vector<std::vector<int>> orderings;
};

/// Per-call inputs. The budget and the detection configuration live in the
/// DetectionModel passed to Solve().
struct SolveRequest {
  /// Required by threshold-searching backends (brute-force, ishm-*): the
  /// uncompiled instance, for threshold upper bounds and validation. Must
  /// be the instance `game` was compiled from.
  const core::GameInstance* instance = nullptr;
  /// Required by fixed-threshold backends (full-lp, cggs): the threshold
  /// vector b to evaluate.
  std::vector<double> thresholds;
  /// Optional warm start for the heuristic backends.
  WarmStart warm_start;
};

/// Search-effort counters, unified across backends. Fields irrelevant to a
/// backend stay zero (e.g. `lp_solves` for brute-force, `evaluations` for
/// the fixed-threshold evaluators).
struct SolveStats {
  /// ISHM: threshold vectors submitted for evaluation (Table VII).
  int64_t evaluations = 0;
  /// ISHM: distinct effective vectors actually evaluated (cache misses).
  int64_t distinct_evaluations = 0;
  /// ISHM: accepted improvements.
  int improvements = 0;
  /// CGGS: restricted master LPs solved (ishm-cggs: summed over the
  /// sweep's distinct probes).
  int lp_solves = 0;
  /// CGGS: master solves warm-started from the previous basis (the
  /// incremental master; see core/master_lp.h).
  int warm_lp_solves = 0;
  /// CGGS: columns generated beyond the initial set.
  int columns_generated = 0;
  /// CGGS: wall-clock spent in the pricing rounds (the part
  /// CggsOptions::pricing_threads parallelizes).
  double pricing_seconds = 0.0;
  /// Brute force: threshold vectors whose LP was solved.
  uint64_t vectors_evaluated = 0;
  /// Brute force: size of the full search space prod_t (J_t + 1).
  uint64_t search_space = 0;
  /// Wall-clock time of the Solve() call.
  double seconds = 0.0;

  /// Timing fields stream as TimingF64 — skipped by state fingerprints,
  /// since two bit-identical recoveries measure different wall-clocks.
  void StreamState(util::Serializer& s);
};

/// What every backend returns: the objective (expected auditor loss), the
/// assembled policy, the effective thresholds it commits to, and stats.
struct SolveResult {
  /// Registry name of the backend that produced this result.
  std::string solver;
  double objective = 0.0;
  core::AuditPolicy policy;
  /// The thresholds of the returned policy (searched or as requested,
  /// floored to whole audits where the backend does so).
  std::vector<double> thresholds;
  SolveStats stats;

  void StreamState(util::Serializer& s);
};

/// Abstract polymorphic solver. Implementations are stateless between
/// Solve() calls except for deliberate warm-start state (ishm-cggs keeps
/// its sweep's master LP per *call*, not per solver object, so repeated
/// Solve() calls are independent and deterministic).
///
/// Thread-safety: a Solver object may be used from one thread at a time;
/// `detection` is mutated (SetThresholds) during the solve. For parallel
/// batches give each request its own DetectionModel — SolverEngine does.
class Solver {
 public:
  virtual ~Solver() = default;

  /// The registry name ("ishm-cggs", ...).
  virtual std::string_view Name() const = 0;

  /// Solves the game. `detection` must be bound to the same instance and
  /// carries the budget; its thresholds are overwritten.
  virtual util::StatusOr<SolveResult> Solve(const core::CompiledGame& game,
                                            core::DetectionModel& detection,
                                            const SolveRequest& request) = 0;
};

}  // namespace auditgame::solver

#endif  // AUDIT_GAME_SOLVER_SOLVER_H_
