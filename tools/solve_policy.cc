// solve_policy: command-line front end to the audit-game solver.
//
// Reads a game instance from a JSON file (see core/game_io.h for the
// schema, or export_game for ready-made instances), solves the optimal
// auditing problem at the given budget, and writes the audit policy as
// JSON to stdout or a file.
//
//   solve_policy --game=game.json --budget=20 --eps=0.1 --out=policy.json
//
// The solver backend is picked by name (--solver=ishm-cggs, ishm-full,
// cggs, full-lp, brute-force); fixed-threshold backends take the vector via
// --thresholds=2,3,1.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/detection.h"
#include "core/game_io.h"
#include "solver/solver.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace {

using namespace auditgame;  // NOLINT

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("game", "", "path to the game instance JSON (required)");
  flags.Define("budget", "10", "audit budget B");
  flags.Define("eps", "0.1", "ISHM step size");
  flags.Define("solver", "ishm-cggs",
               "solver backend: ishm-cggs | ishm-full | cggs | full-lp | "
               "brute-force");
  flags.Define("thresholds", "",
               "comma-separated thresholds b_t for the fixed-threshold "
               "backends (cggs, full-lp)");
  flags.Define("out", "", "output path for the policy JSON (default stdout)");
  flags.Define("mc_samples", "0",
               "use Monte Carlo detection with this many samples (0 = exact)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested() || flags.GetString("game").empty()) {
    std::cout << flags.HelpString(argv[0]);
    return flags.help_requested() ? 0 : 1;
  }

  const int mc_samples = flags.GetInt("mc_samples");
  if (mc_samples < 0) {
    std::cerr << "--mc_samples must be >= 0 (0 = exact detection)\n";
    return 1;
  }

  std::ifstream in(flags.GetString("game"));
  if (!in) {
    std::cerr << "cannot open " << flags.GetString("game") << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto game = core::ParseGame(buffer.str());
  if (!game.ok()) {
    std::cerr << game.status() << "\n";
    return 1;
  }

  solver::EngineRequest request;
  request.solver = flags.GetString("solver");
  request.instance = &*game;
  request.budget = flags.GetDouble("budget");
  if (mc_samples > 0) {
    request.detection_options.mode = core::DetectionModel::Mode::kMonteCarlo;
    request.detection_options.mc_samples = mc_samples;
  }
  request.thresholds = flags.GetDoubleList("thresholds");
  request.options.ishm.step_size = flags.GetDouble("eps");
  auto result = solver::Solve(request);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }

  std::cerr << "solver: " << result->solver << "\n"
            << "objective (expected auditor loss): " << result->objective
            << "\n"
            << "thresholds: "
            << util::FormatDoubleVector(result->thresholds) << "\n";
  if (result->solver == "brute-force") {
    std::cerr << "threshold vectors evaluated: "
              << result->stats.vectors_evaluated << " of "
              << result->stats.search_space << "\n";
  } else if (result->solver == "cggs") {
    std::cerr << "master LPs solved: " << result->stats.lp_solves << ", "
              << "columns generated: " << result->stats.columns_generated
              << "\n";
  } else if (result->stats.evaluations > 0) {
    std::cerr << "threshold vectors explored: " << result->stats.evaluations
              << " (" << result->stats.distinct_evaluations << " distinct)\n";
  }
  std::cerr << "solve time: " << result->stats.seconds << "s\n";
  const std::string policy_json = core::SerializePolicy(result->policy);
  if (flags.GetString("out").empty()) {
    std::cout << policy_json << "\n";
  } else {
    std::ofstream out(flags.GetString("out"));
    if (!out) {
      std::cerr << "cannot write " << flags.GetString("out") << "\n";
      return 1;
    }
    out << policy_json << "\n";
    std::cerr << "policy written to " << flags.GetString("out") << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
