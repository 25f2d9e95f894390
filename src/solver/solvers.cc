// The five built-in Solver adapters, wrapping the free functions in core/.
// Each adapter is a thin translation layer: it forwards to the underlying
// algorithm unchanged (same options, same seeds), so results are bit-for-bit
// identical to direct calls — solver_registry_test enforces this.
#include <memory>
#include <string>
#include <utility>

#include "core/brute_force.h"
#include "core/cggs.h"
#include "core/game_lp.h"
#include "core/ishm.h"
#include "solver/registry.h"
#include "solver/solver.h"
#include "util/serializer.h"
#include "util/timer.h"

namespace auditgame::solver {
namespace {

util::Status RequireInstance(const SolveRequest& request,
                             std::string_view name) {
  if (request.instance == nullptr) {
    return util::InvalidArgumentError(
        std::string(name) +
        " searches thresholds and needs SolveRequest::instance");
  }
  return util::OkStatus();
}

util::Status RequireThresholds(const core::CompiledGame& game,
                               const SolveRequest& request,
                               std::string_view name) {
  if (static_cast<int>(request.thresholds.size()) != game.num_types) {
    return util::InvalidArgumentError(
        std::string(name) +
        " evaluates a fixed threshold vector and needs "
        "SolveRequest::thresholds with one entry per type");
  }
  return util::OkStatus();
}

class BruteForceSolver : public Solver {
 public:
  explicit BruteForceSolver(const SolverOptions& options)
      : options_(options.brute_force) {}

  std::string_view Name() const override { return "brute-force"; }

  util::StatusOr<SolveResult> Solve(const core::CompiledGame& game,
                                    core::DetectionModel& detection,
                                    const SolveRequest& request) override {
    RETURN_IF_ERROR(RequireInstance(request, Name()));
    util::Timer timer;
    ASSIGN_OR_RETURN(
        core::BruteForceResult brute,
        core::SolveBruteForce(*request.instance, game, detection, options_));
    SolveResult result;
    result.solver = Name();
    result.objective = brute.objective;
    result.policy = std::move(brute.policy);
    result.thresholds = result.policy.thresholds;
    result.stats.vectors_evaluated = brute.vectors_evaluated;
    result.stats.search_space = brute.search_space;
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }

 private:
  core::BruteForceOptions options_;
};

class FullLpSolver : public Solver {
 public:
  explicit FullLpSolver(const SolverOptions&) {}

  std::string_view Name() const override { return "full-lp"; }

  util::StatusOr<SolveResult> Solve(const core::CompiledGame& game,
                                    core::DetectionModel& detection,
                                    const SolveRequest& request) override {
    RETURN_IF_ERROR(RequireThresholds(game, request, Name()));
    util::Timer timer;
    ASSIGN_OR_RETURN(
        core::FullLpResult full,
        core::SolveFullGameLp(game, detection, request.thresholds));
    SolveResult result;
    result.solver = Name();
    result.objective = full.objective;
    result.policy = std::move(full.policy);
    result.thresholds = result.policy.thresholds;
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }
};

class CggsSolver : public Solver {
 public:
  explicit CggsSolver(const SolverOptions& options) : options_(options.cggs) {}

  std::string_view Name() const override { return "cggs"; }

  util::StatusOr<SolveResult> Solve(const core::CompiledGame& game,
                                    core::DetectionModel& detection,
                                    const SolveRequest& request) override {
    RETURN_IF_ERROR(RequireThresholds(game, request, Name()));
    util::Timer timer;
    core::CggsOptions options = options_;
    options.initial_orderings.insert(options.initial_orderings.end(),
                                     request.warm_start.orderings.begin(),
                                     request.warm_start.orderings.end());
    ASSIGN_OR_RETURN(
        core::CggsResult cggs,
        core::SolveCggs(game, detection, request.thresholds, options));
    SolveResult result;
    result.solver = Name();
    result.objective = cggs.objective;
    result.policy = std::move(cggs.policy);
    result.thresholds = result.policy.thresholds;
    result.stats.lp_solves = cggs.lp_solves;
    result.stats.warm_lp_solves = cggs.warm_lp_solves;
    result.stats.columns_generated = cggs.columns_generated;
    result.stats.pricing_seconds = cggs.pricing_seconds;
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }

 private:
  core::CggsOptions options_;
};

/// Shared shape of the two ISHM adapters; `evaluator_name` selects the
/// threshold evaluator wired under the shrink search.
class IshmSolver : public Solver {
 public:
  enum class Evaluator { kFullLp, kCggs };

  IshmSolver(const SolverOptions& options, Evaluator evaluator)
      : options_(options), evaluator_(evaluator) {}

  std::string_view Name() const override {
    return evaluator_ == Evaluator::kFullLp ? "ishm-full" : "ishm-cggs";
  }

  util::StatusOr<SolveResult> Solve(const core::CompiledGame& game,
                                    core::DetectionModel& detection,
                                    const SolveRequest& request) override {
    RETURN_IF_ERROR(RequireInstance(request, Name()));
    util::Timer timer;
    SolverOptions options = options_;
    if (!request.warm_start.thresholds.empty()) {
      options.ishm.initial_thresholds = request.warm_start.thresholds;
    }
    options.cggs.initial_orderings.insert(
        options.cggs.initial_orderings.end(),
        request.warm_start.orderings.begin(),
        request.warm_start.orderings.end());
    // A fresh evaluator per call keeps the CGGS sweep's master LP scoped
    // to this solve: repeated Solve() calls are independent and
    // deterministic.
    const core::ThresholdEvaluator evaluator =
        evaluator_ == Evaluator::kFullLp
            ? core::MakeFullLpEvaluator(game, detection)
            : core::MakeCggsEvaluator(game, detection, options.cggs);
    ASSIGN_OR_RETURN(
        core::IshmResult ishm,
        core::SolveIshm(*request.instance, evaluator, options.ishm));
    SolveResult result;
    result.solver = Name();
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
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }

 private:
  SolverOptions options_;
  Evaluator evaluator_;
};

}  // namespace

void SolveStats::StreamState(util::Serializer& s) {
  s.Section("solve_stats", 1);
  s.I64(evaluations);
  s.I64(distinct_evaluations);
  s.I32(improvements);
  s.I32(lp_solves);
  s.I32(warm_lp_solves);
  s.I32(columns_generated);
  s.TimingF64(pricing_seconds);
  s.U64(vectors_evaluated);
  s.U64(search_space);
  s.TimingF64(seconds);
}

void SolveResult::StreamState(util::Serializer& s) {
  s.Section("solve_result", 1);
  s.Str(solver);
  s.F64(objective);
  s.Object(policy);
  s.VecF64(thresholds);
  s.Object(stats);
}

namespace internal {

void RegisterBuiltinSolvers() {
  (void)internal::RegisterFactory("brute-force", [](const SolverOptions& options) {
    return std::make_unique<BruteForceSolver>(options);
  });
  (void)internal::RegisterFactory("full-lp", [](const SolverOptions& options) {
    return std::make_unique<FullLpSolver>(options);
  });
  (void)internal::RegisterFactory("cggs", [](const SolverOptions& options) {
    return std::make_unique<CggsSolver>(options);
  });
  (void)internal::RegisterFactory("ishm-full", [](const SolverOptions& options) {
    return std::make_unique<IshmSolver>(options, IshmSolver::Evaluator::kFullLp);
  });
  (void)internal::RegisterFactory("ishm-cggs", [](const SolverOptions& options) {
    return std::make_unique<IshmSolver>(options, IshmSolver::Evaluator::kCggs);
  });
}

}  // namespace internal
}  // namespace auditgame::solver
