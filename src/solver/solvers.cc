// The five backends behind solver::Solve, each a thin translation from an
// EngineRequest to the free function in core/: options and seeds are
// forwarded unchanged, so results are bit-for-bit identical to direct
// calls — solver_test enforces this.
#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>

#include "core/brute_force.h"
#include "core/cggs.h"
#include "core/game_lp.h"
#include "core/ishm.h"
#include "solver/solver.h"
#include "util/serializer.h"
#include "util/timer.h"

namespace auditgame::solver {
namespace {

util::Status RequireThresholds(const EngineRequest& request,
                               const core::CompiledGame& game) {
  if (static_cast<int>(request.thresholds.size()) != game.num_types) {
    return util::InvalidArgumentError(
        request.solver +
        " evaluates a fixed threshold vector and needs "
        "EngineRequest::thresholds with one entry per type");
  }
  return util::OkStatus();
}

util::StatusOr<SolveResult> SolveBruteForce(const EngineRequest& request,
                                            const core::CompiledGame& game,
                                            core::DetectionModel& detection) {
  util::Timer timer;
  ASSIGN_OR_RETURN(core::BruteForceResult brute,
                   core::SolveBruteForce(*request.instance, game, detection,
                                         request.options.brute_force));
  SolveResult result;
  result.stats.seconds = timer.ElapsedSeconds();
  result.objective = brute.objective;
  result.policy = std::move(brute.policy);
  result.thresholds = result.policy.thresholds;
  result.stats.vectors_evaluated = brute.vectors_evaluated;
  result.stats.search_space = brute.search_space;
  return result;
}

util::StatusOr<SolveResult> SolveFullLp(const EngineRequest& request,
                                        const core::CompiledGame& game,
                                        core::DetectionModel& detection) {
  RETURN_IF_ERROR(RequireThresholds(request, game));
  util::Timer timer;
  ASSIGN_OR_RETURN(
      core::FullLpResult full,
      core::SolveFullGameLp(game, detection, request.thresholds));
  SolveResult result;
  result.stats.seconds = timer.ElapsedSeconds();
  result.objective = full.objective;
  result.policy = std::move(full.policy);
  result.thresholds = result.policy.thresholds;
  return result;
}

util::StatusOr<SolveResult> SolveCggs(const EngineRequest& request,
                                      const core::CompiledGame& game,
                                      core::DetectionModel& detection) {
  RETURN_IF_ERROR(RequireThresholds(request, game));
  util::Timer timer;
  core::CggsOptions options = request.options.cggs;
  options.initial_orderings.insert(options.initial_orderings.end(),
                                   request.warm_start.orderings.begin(),
                                   request.warm_start.orderings.end());
  ASSIGN_OR_RETURN(
      core::CggsResult cggs,
      core::SolveCggs(game, detection, request.thresholds, options));
  SolveResult result;
  result.stats.seconds = timer.ElapsedSeconds();
  result.objective = cggs.objective;
  result.policy = std::move(cggs.policy);
  result.thresholds = result.policy.thresholds;
  result.stats.lp_solves = cggs.lp_solves;
  result.stats.warm_lp_solves = cggs.warm_lp_solves;
  result.stats.columns_generated = cggs.columns_generated;
  result.stats.pricing_seconds = cggs.pricing_seconds;
  return result;
}

// ISHM over the threshold evaluator `full_lp` selects: the full LP
// (ishm-full) or CGGS (ishm-cggs).
util::StatusOr<SolveResult> SolveIshm(const EngineRequest& request,
                                      const core::CompiledGame& game,
                                      core::DetectionModel& detection,
                                      bool full_lp) {
  util::Timer timer;
  core::IshmOptions ishm_options = request.options.ishm;
  if (!request.warm_start.thresholds.empty()) {
    ishm_options.initial_thresholds = request.warm_start.thresholds;
  }
  core::CggsOptions cggs_options = request.options.cggs;
  cggs_options.initial_orderings.insert(cggs_options.initial_orderings.end(),
                                        request.warm_start.orderings.begin(),
                                        request.warm_start.orderings.end());
  // A fresh evaluator per call keeps the CGGS sweep's master LP scoped to
  // this solve: repeated solves are independent and deterministic.
  const core::ThresholdEvaluator evaluator =
      full_lp ? core::MakeFullLpEvaluator(game, detection)
              : core::MakeCggsEvaluator(game, detection, cggs_options);
  ASSIGN_OR_RETURN(core::IshmResult ishm,
                   core::SolveIshm(*request.instance, evaluator, ishm_options));
  SolveResult result;
  result.stats.seconds = timer.ElapsedSeconds();
  result.objective = ishm.objective;
  result.policy = std::move(ishm.policy);
  result.thresholds = std::move(ishm.effective_thresholds);
  result.stats.evaluations = ishm.stats.evaluations;
  result.stats.distinct_evaluations = ishm.stats.distinct_evaluations;
  result.stats.improvements = ishm.stats.improvements;
  result.stats.lp_solves = ishm.stats.cggs.lp_solves;
  result.stats.warm_lp_solves = ishm.stats.cggs.warm_lp_solves;
  result.stats.columns_generated = ishm.stats.cggs.columns_generated;
  result.stats.pricing_seconds = ishm.stats.cggs.pricing_seconds;
  return result;
}

util::StatusOr<SolveResult> SolveIshmFull(const EngineRequest& request,
                                          const core::CompiledGame& game,
                                          core::DetectionModel& detection) {
  return SolveIshm(request, game, detection, /*full_lp=*/true);
}

util::StatusOr<SolveResult> SolveIshmCggs(const EngineRequest& request,
                                          const core::CompiledGame& game,
                                          core::DetectionModel& detection) {
  return SolveIshm(request, game, detection, /*full_lp=*/false);
}

struct Backend {
  std::string_view name;
  util::StatusOr<SolveResult> (*solve)(const EngineRequest&,
                                       const core::CompiledGame&,
                                       core::DetectionModel&);
};

constexpr Backend kBackends[] = {
    {"brute-force", SolveBruteForce}, {"full-lp", SolveFullLp},
    {"cggs", SolveCggs},              {"ishm-full", SolveIshmFull},
    {"ishm-cggs", SolveIshmCggs},
};

}  // namespace

util::StatusOr<SolveResult> Solve(const EngineRequest& request) {
  if (request.instance == nullptr) {
    return util::InvalidArgumentError("EngineRequest::instance is null");
  }
  ASSIGN_OR_RETURN(core::CompiledGame game, core::Compile(*request.instance));
  return Solve(request, game);
}

util::StatusOr<SolveResult> Solve(const EngineRequest& request,
                                  const core::CompiledGame& game) {
  if (request.instance == nullptr) {
    return util::InvalidArgumentError("EngineRequest::instance is null");
  }
  const Backend* backend =
      std::find_if(std::begin(kBackends), std::end(kBackends),
                   [&](const Backend& b) { return b.name == request.solver; });
  if (backend == std::end(kBackends)) {
    std::string known;
    for (const Backend& b : kBackends) {
      if (!known.empty()) known += ", ";
      known += b.name;
    }
    return util::NotFoundError("unknown solver \"" + request.solver +
                               "\" (known: " + known + ")");
  }
  ASSIGN_OR_RETURN(core::DetectionModel detection,
                   core::DetectionModel::Create(*request.instance,
                                                request.budget,
                                                request.detection_options));
  ASSIGN_OR_RETURN(SolveResult result,
                   backend->solve(request, game, detection));
  result.solver = request.solver;
  return result;
}

void SolveStats::StreamState(util::Serializer& s) {
  s.Section("solve_stats", 1);
  s.I64(evaluations);
  s.I64(distinct_evaluations);
  s.I32(improvements);
  s.I32(lp_solves);
  s.I32(warm_lp_solves);
  s.I32(columns_generated);
  s.U64(vectors_evaluated);
  s.U64(search_space);
}

void SolveResult::StreamState(util::Serializer& s) {
  s.Section("solve_result", 1);
  s.Str(solver);
  s.F64(objective);
  s.Object(policy);
  s.VecF64(thresholds);
  s.Object(stats);
}

}  // namespace auditgame::solver
