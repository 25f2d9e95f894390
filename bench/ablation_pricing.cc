// Ablation: CGGS pricing strategies. The paper's Algorithm 1 builds each
// new column greedily from the master duals. This bench compares, on
// Syn A across budgets:
//   * greedy   — Algorithm 1 as published (+ random probes disabled);
//   * greedy+r — Algorithm 1 with 2 random probe columns per round
//                (this library's default);
//   * exact    — exact pricing by enumerating all |T|! orderings per round
//                (optimal column generation, feasible only for small |T|);
//   * random   — random columns only (no dual guidance), same column count.
// Reported: final objective and number of LP solves.
#include <iostream>
#include <numeric>
#include <set>
#include <vector>

#include "core/detection.h"
#include "core/game_lp.h"
#include "data/syn_a.h"
#include "solver/solver.h"
#include "util/combinatorics.h"
#include "util/flags.h"
#include "util/random.h"

namespace {

using namespace auditgame;  // NOLINT

// Exact column generation: price every permutation against the duals.
util::StatusOr<std::pair<double, int>> ExactColumnGeneration(
    const core::CompiledGame& game, core::DetectionModel& detection,
    const std::vector<double>& thresholds) {
  RETURN_IF_ERROR(detection.SetThresholds(thresholds));
  std::vector<std::vector<int>> columns;
  std::vector<int> identity(game.num_types);
  std::iota(identity.begin(), identity.end(), 0);
  columns.push_back(identity);
  std::set<std::vector<int>> column_set(columns.begin(), columns.end());
  const auto all_orderings = util::AllPermutations(game.num_types);

  int lp_solves = 0;
  for (;;) {
    ASSIGN_OR_RETURN(core::RestrictedLpSolution master,
                     core::SolveRestrictedGameLp(game, detection, columns));
    ++lp_solves;
    double best_rc = -1e-7;
    const std::vector<int>* best = nullptr;
    for (const auto& ordering : all_orderings) {
      if (column_set.count(ordering)) continue;
      ASSIGN_OR_RETURN(std::vector<double> pal,
                       detection.DetectionProbabilities(ordering));
      double rc = -master.convexity_dual;
      for (size_t g = 0; g < game.groups.size(); ++g) {
        const auto& victims = game.groups[g].victims;
        for (size_t v = 0; v < victims.size(); ++v) {
          rc += master.victim_duals[g][v] *
                core::AdversaryUtility(victims[v], pal);
        }
      }
      if (rc < best_rc) {
        best_rc = rc;
        best = &ordering;
      }
    }
    if (best == nullptr) {
      return std::make_pair(master.objective, lp_solves);
    }
    column_set.insert(*best);
    columns.push_back(*best);
  }
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("budgets", "2,6,10,14,18", "budgets to probe");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  const util::StatusOr<std::vector<int>> budgets =
      flags.GetNonEmptyList<int>("budgets");
  if (!budgets.ok()) {
    std::cerr << budgets.status() << "\n";
    return 1;
  }

  auto instance = data::MakeSynA();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }
  auto compiled = core::Compile(*instance);
  if (!compiled.ok()) {
    std::cerr << compiled.status() << "\n";
    return 1;
  }
  const std::vector<double> thresholds = {3.0, 3.0, 2.0, 2.0};

  std::cout << "# Ablation: CGGS pricing strategies on Syn A, b = [3,3,2,2]\n";
  std::cout << "budget,strategy,objective,lp_solves,columns\n";
  for (int budget : *budgets) {
    auto detection = core::DetectionModel::Create(*instance, budget);
    if (!detection.ok()) {
      std::cerr << detection.status() << "\n";
      return 1;
    }

    // The greedy variants are the "cggs" backend with random probes off/on.
    solver::EngineRequest request;
    request.solver = "cggs";
    request.instance = &*instance;
    request.budget = budget;
    request.thresholds = thresholds;
    request.options.cggs.random_probes = 0;
    auto greedy_result = solver::Solve(request, *compiled);
    request.options.cggs.random_probes = 2;
    auto greedy_random_result = solver::Solve(request, *compiled);
    auto exact = ExactColumnGeneration(*compiled, *detection, thresholds);
    if (!greedy_result.ok() || !greedy_random_result.ok() || !exact.ok()) {
      std::cerr << greedy_result.status() << " / "
                << greedy_random_result.status() << " / " << exact.status()
                << "\n";
      return 1;
    }
    // Random-only: uniform random distinct columns, one LP at the end with
    // the same number of columns exact pricing used.
    util::Rng rng(99);
    std::set<std::vector<int>> random_columns;
    std::vector<int> ordering(static_cast<size_t>(instance->num_types()));
    std::iota(ordering.begin(), ordering.end(), 0);
    // Q at termination = the identity seed column + the generated ones.
    const size_t want = static_cast<size_t>(
        greedy_random_result->stats.columns_generated + 1);
    while (random_columns.size() < want) {
      rng.Shuffle(ordering);
      random_columns.insert(ordering);
    }
    auto random_result = core::SolveRestrictedGameLp(
        *compiled, *detection,
        std::vector<std::vector<int>>(random_columns.begin(),
                                      random_columns.end()));
    if (!random_result.ok()) {
      std::cerr << random_result.status() << "\n";
      return 1;
    }

    std::cout << budget << ",greedy," << greedy_result->objective << ","
              << greedy_result->stats.lp_solves << ","
              << greedy_result->stats.columns_generated + 1 << "\n";
    std::cout << budget << ",greedy+r," << greedy_random_result->objective
              << "," << greedy_random_result->stats.lp_solves << ","
              << greedy_random_result->stats.columns_generated + 1 << "\n";
    std::cout << budget << ",exact," << exact->first << "," << exact->second
              << "," << exact->second << "\n";
    std::cout << budget << ",random," << random_result->objective << ",1,"
              << want << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
