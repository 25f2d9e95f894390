#ifndef AUDIT_GAME_BENCH_FIGURE_COMMON_H_
#define AUDIT_GAME_BENCH_FIGURE_COMMON_H_

// Shared sweep harness for Figures 1 and 2: auditor loss vs budget for the
// proposed model (ISHM + CGGS at several step sizes) against the three
// baselines of Section V-B.
//
// The game is compiled once; each budget's row solves the proposed model at
// every step size through solver::Solve on that compiled game, then runs
// the baselines on it. Alongside the CSV on `out`, the sweep can emit a
// machine-readable BENCH_*.json (util/json) so the perf trajectory is
// trackable across commits.

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/detection.h"
#include "core/game.h"
#include "solver/solver.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/timer.h"

namespace auditgame::bench {

struct FigureSweepOptions {
  std::vector<int> budgets;
  std::vector<double> step_sizes = {0.1, 0.2, 0.3};
  /// Distinct random orderings mixed by the random-order baseline
  /// (paper: 2000).
  int random_orders = 2000;
  /// Draws of the random-threshold baseline (paper: 5000; the default is
  /// lower because every draw solves a full CGGS — see docs/DESIGN.md).
  int random_threshold_draws = 100;
  uint64_t seed = 20180113;
  /// Short name recorded in the JSON report (e.g. "fig1_emr").
  std::string bench_name;
  /// When non-empty, write the JSON report here (e.g. "BENCH_fig1_emr.json").
  std::string json_path;
};

/// Runs the sweep and prints one CSV row per budget:
///   budget, proposed@eps..., random_thresholds, random_orders,
///   greedy_benefit, seconds
/// `seconds` is the backend time summed over the row's step sizes
/// (SolveStats::seconds) plus the wall time of the row's baselines.
inline util::Status RunFigureSweep(const core::GameInstance& instance,
                                   const FigureSweepOptions& options,
                                   std::ostream& out) {
  ASSIGN_OR_RETURN(core::CompiledGame game, core::Compile(instance));

  out << "budget";
  for (double eps : options.step_sizes) out << ",proposed_eps" << eps;
  out << ",random_thresholds,random_orders,greedy_benefit,seconds\n";

  util::JsonValue::Array json_rows;
  for (int budget : options.budgets) {
    // --- Proposed model: ISHM + CGGS at each step size ------------------
    double solver_seconds = 0.0;
    std::vector<double> losses;
    std::vector<double> first_eps_thresholds;
    util::JsonValue::Array json_proposed;
    for (double eps : options.step_sizes) {
      solver::EngineRequest request;
      request.solver = "ishm-cggs";
      request.instance = &instance;
      request.budget = budget;
      request.options.ishm.step_size = eps;
      request.options.cggs.seed = options.seed;
      ASSIGN_OR_RETURN(solver::SolveResult cell,
                       solver::Solve(request, game));
      losses.push_back(cell.objective);
      solver_seconds += cell.stats.seconds;
      if (first_eps_thresholds.empty()) {
        first_eps_thresholds = cell.thresholds;
      }
      util::JsonValue::Object json_cell;
      json_cell["eps"] = eps;
      json_cell["objective"] = cell.objective;
      json_cell["seconds"] = cell.stats.seconds;
      json_proposed.push_back(std::move(json_cell));
    }

    util::Timer baseline_timer;
    ASSIGN_OR_RETURN(core::DetectionModel detection,
                     core::DetectionModel::Create(instance, budget));

    // --- Baseline: random thresholds (auditor still optimizes orders) ---
    double random_thresholds_loss = 0.0;
    if (options.random_threshold_draws > 0) {
      ASSIGN_OR_RETURN(
          core::RandomThresholdResult rt,
          core::RandomThresholdBaseline(instance, game, detection,
                                        options.random_threshold_draws,
                                        options.seed + 1));
      random_thresholds_loss = rt.mean_auditor_loss;
    }

    // --- Baseline: random orders with the proposed thresholds -----------
    ASSIGN_OR_RETURN(core::RandomOrderResult ro,
                     core::RandomOrderBaseline(game, detection,
                                               first_eps_thresholds,
                                               options.random_orders,
                                               options.seed + 2));

    // --- Baseline: greedy by benefit ------------------------------------
    ASSIGN_OR_RETURN(core::GreedyBenefitResult gb,
                     core::GreedyByBenefitBaseline(game, detection));

    const double seconds = solver_seconds + baseline_timer.ElapsedSeconds();
    out << budget;
    for (double loss : losses) out << "," << loss;
    out << "," << random_thresholds_loss << "," << ro.auditor_loss << ","
        << gb.auditor_loss << "," << seconds << "\n";
    out.flush();

    util::JsonValue::Object json_row;
    json_row["budget"] = budget;
    json_row["proposed"] = std::move(json_proposed);
    json_row["random_thresholds"] = random_thresholds_loss;
    json_row["random_orders"] = ro.auditor_loss;
    json_row["greedy_benefit"] = gb.auditor_loss;
    json_row["seconds"] = seconds;
    json_rows.push_back(std::move(json_row));
  }

  if (!options.json_path.empty()) {
    util::JsonValue::Object report;
    report["bench"] = options.bench_name;
    util::JsonValue::Array eps_array;
    for (double eps : options.step_sizes) eps_array.push_back(eps);
    report["step_sizes"] = std::move(eps_array);
    report["random_orders"] = options.random_orders;
    report["random_threshold_draws"] = options.random_threshold_draws;
    report["seed"] = static_cast<double>(options.seed);
    report["rows"] = std::move(json_rows);
    std::ofstream json_out(options.json_path);
    if (!json_out) {
      return util::InvalidArgumentError("cannot write " + options.json_path);
    }
    json_out << util::JsonValue(std::move(report)).Dump(2) << "\n";
  }
  return util::OkStatus();
}

/// What sets one figure driver apart from the other.
struct FigureDriver {
  /// Recorded in the JSON report, which defaults to BENCH_<name>.json.
  std::string bench_name;
  /// First output line, after "# ".
  std::string title;
  std::string default_budgets;
  std::string default_seed;
};

/// The figure drivers' main(): parses the sweep flags (non-empty --budgets
/// and --eps, --random_orders >= 1, --rt_draws >= 0), builds the game with
/// `make_game` and runs RunFigureSweep on it. Returns the process exit code.
template <typename MakeGame>
int RunFigureDriver(int argc, char** argv, const FigureDriver& driver,
                    MakeGame make_game) {
  util::FlagParser flags;
  flags.Define("budgets", driver.default_budgets, "audit budgets");
  flags.Define("eps", "0.1,0.2,0.3", "ISHM step sizes for the proposed model");
  flags.Define("random_orders", "2000", "orderings in the random-order mix");
  flags.Define("rt_draws", "100", "random-threshold baseline draws");
  flags.Define("seed", driver.default_seed, "experiment seed");
  flags.Define("json", "BENCH_" + driver.bench_name + ".json",
               "machine-readable report path (empty = none)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  const util::StatusOr<int> random_orders =
      flags.GetIntAtLeast("random_orders", 1);
  if (!random_orders.ok()) {
    std::cerr << random_orders.status() << "\n";
    return 1;
  }
  const util::StatusOr<int> rt_draws = flags.GetIntAtLeast("rt_draws", 0);
  if (!rt_draws.ok()) {
    std::cerr << rt_draws.status() << "\n";
    return 1;
  }
  util::StatusOr<std::vector<int>> budgets =
      flags.GetNonEmptyList<int>("budgets");
  util::StatusOr<std::vector<double>> step_sizes =
      flags.GetNonEmptyList<double>("eps");
  if (!budgets.ok() || !step_sizes.ok()) {
    std::cerr << (budgets.ok() ? step_sizes.status() : budgets.status())
              << "\n";
    return 1;
  }

  const util::StatusOr<core::GameInstance> instance = make_game();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }

  FigureSweepOptions options;
  options.budgets = std::move(*budgets);
  options.step_sizes = std::move(*step_sizes);
  options.random_orders = *random_orders;
  options.random_threshold_draws = *rt_draws;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.bench_name = driver.bench_name;
  options.json_path = flags.GetString("json");

  std::cout << "# " << driver.title << "\n";
  const util::Status run = RunFigureSweep(*instance, options, std::cout);
  if (!run.ok()) {
    std::cerr << run << "\n";
    return 1;
  }
  return 0;
}

}  // namespace auditgame::bench

#endif  // AUDIT_GAME_BENCH_FIGURE_COMMON_H_
