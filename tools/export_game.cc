// export_game: writes one of the built-in game instances (the paper's
// datasets) as JSON, for use with solve_policy or external tooling.
//
//   export_game --dataset=syn_a > syn_a.json
//   export_game --dataset=emr --out=emr.json
//
// With --solver, the instance is also solved (at --budget) through the
// solver registry before export and a summary goes to stderr — a quick
// sanity check that an exported game is well-formed and solvable:
//
//   export_game --dataset=syn_a --solver=ishm-cggs --budget=10 > syn_a.json
#include <fstream>
#include <iostream>

#include "core/game_io.h"
#include "data/credit.h"
#include "data/emr.h"
#include "data/syn_a.h"
#include "solver/solver.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace {

using namespace auditgame;  // NOLINT

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("dataset", "syn_a", "which instance: syn_a | emr | credit");
  flags.Define("out", "", "output path (default stdout)");
  flags.Define("seed", "0", "generation seed override (0 = dataset default)");
  flags.Define("solver", "",
               "when set, also solve the instance with this registry "
               "backend (e.g. ishm-cggs) and report the objective on stderr");
  flags.Define("budget", "10", "audit budget B for --solver");
  flags.Define("eps", "0.1", "ISHM step size for --solver");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }

  util::StatusOr<core::GameInstance> game =
      util::InvalidArgumentError("unset");
  const std::string dataset = flags.GetString("dataset");
  if (dataset == "syn_a") {
    game = data::MakeSynA();
  } else if (dataset == "emr") {
    data::EmrConfig config;
    if (flags.GetInt("seed") != 0) {
      config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    }
    game = data::MakeEmrGame(config);
  } else if (dataset == "credit") {
    data::CreditConfig config;
    if (flags.GetInt("seed") != 0) {
      config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    }
    game = data::MakeCreditGame(config);
  } else {
    std::cerr << "unknown --dataset: " << dataset << "\n";
    return 1;
  }
  if (!game.ok()) {
    std::cerr << game.status() << "\n";
    return 1;
  }

  if (!flags.GetString("solver").empty()) {
    solver::EngineRequest request;
    request.solver = flags.GetString("solver");
    request.instance = &*game;
    request.budget = flags.GetDouble("budget");
    request.options.ishm.step_size = flags.GetDouble("eps");
    auto result = solver::Solve(request);
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    std::cerr << dataset << " @ B=" << request.budget << " via "
              << result->solver << ": objective " << result->objective
              << ", thresholds "
              << util::FormatDoubleVector(result->thresholds) << " ("
              << result->stats.seconds << "s)\n";
  }

  const std::string json = core::SerializeGame(*game);
  if (flags.GetString("out").empty()) {
    std::cout << json << "\n";
  } else {
    std::ofstream out(flags.GetString("out"));
    if (!out) {
      std::cerr << "cannot write " << flags.GetString("out") << "\n";
      return 1;
    }
    out << json << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
