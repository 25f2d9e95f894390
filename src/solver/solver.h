#ifndef AUDIT_GAME_SOLVER_SOLVER_H_
#define AUDIT_GAME_SOLVER_SOLVER_H_

#include <cstdint>
#include <string>
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

/// One entry point for the paper's algorithms. They form a family of
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
/// Callers name a backend in an EngineRequest and call solver::Solve()
/// instead of hand-wiring the free functions in core/; see docs/DESIGN.md
/// "Solver layer".

/// Backend configuration. Every backend reads only its slice; unused
/// fields are ignored, so one options object can configure a whole batch
/// of heterogeneous solves.
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

/// One self-contained solve: everything needed to compile the game, bind a
/// detection model and run a backend by name. Solve() builds its own
/// DetectionModel per request (the models are mutated during a solve), so
/// requests never share mutable state.
struct EngineRequest {
  /// Backend name ("ishm-cggs", ...; see the table above).
  std::string solver;
  /// The game to solve. Must outlive the solve.
  const core::GameInstance* instance = nullptr;
  /// Audit budget B for this request.
  double budget = 0.0;
  /// Detection-model configuration (semantics, mode, ...).
  core::DetectionModel::Options detection_options;
  /// Thresholds for fixed-threshold backends (full-lp, cggs); ignored by
  /// the searching backends.
  std::vector<double> thresholds;
  /// Backend configuration (step size, CGGS seed, ...).
  SolverOptions options;
  /// Optional search seed from a previous nearby solve (ISHM thresholds,
  /// CGGS orderings); empty fields mean cold start.
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
  /// CGGS: wall-clock spent in the pricing rounds (greedy growth, probe
  /// generation and reduced-cost evaluation).
  double pricing_seconds = 0.0;
  /// Brute force: threshold vectors whose LP was solved.
  uint64_t vectors_evaluated = 0;
  /// Brute force: size of the full search space prod_t (J_t + 1).
  uint64_t search_space = 0;
  /// Wall-clock time of the backend call (compile and detection-model
  /// setup excluded).
  double seconds = 0.0;

  /// Streams the deterministic counters only: `pricing_seconds` and
  /// `seconds` are measurements, never on the wire, and read 0 on a
  /// restored result.
  void StreamState(util::Serializer& s);
};

/// What every backend returns: the objective (expected auditor loss), the
/// assembled policy, the effective thresholds it commits to, and stats.
struct SolveResult {
  /// Name of the backend that produced this result.
  std::string solver;
  double objective = 0.0;
  core::AuditPolicy policy;
  /// The thresholds of the returned policy (searched or as requested,
  /// floored to whole audits where the backend does so).
  std::vector<double> thresholds;
  SolveStats stats;

  void StreamState(util::Serializer& s);
};

/// Runs the backend named `request.solver` on `*request.instance` at
/// `request.budget`: compiles the game, binds a fresh DetectionModel and
/// forwards to the core/ algorithm with the request's options and seeds
/// unchanged, so results are bit-for-bit those of a direct call. An unknown
/// name is kNotFound (the message lists the five); a null instance, and a
/// fixed-threshold backend without one threshold per type, are
/// kInvalidArgument.
util::StatusOr<SolveResult> Solve(const EngineRequest& request);

/// The same on `game`, which must be compiled from `*request.instance`:
/// an AuditService passes its shard's game, and a paper driver the game it
/// compiled once for its sweep.
util::StatusOr<SolveResult> Solve(const EngineRequest& request,
                                  const core::CompiledGame& game);

}  // namespace auditgame::solver

#endif  // AUDIT_GAME_SOLVER_SOLVER_H_
