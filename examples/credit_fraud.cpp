// Credit-card fraud auditing — the paper's second motivating workload.
// A bank screens 100 applications against the Table IX alert rules and must
// decide which fraud alerts to investigate retrospectively under a budget.
// The example sweeps the budget and prints the deterrence frontier: the
// loss of the bank, which types the optimal policy prioritizes, and the
// budget at which strategic applicants are fully deterred.
#include <iomanip>
#include <iostream>

#include "core/baselines.h"
#include "core/detection.h"
#include "data/credit.h"
#include "solver/solver.h"

using namespace auditgame;  // NOLINT

int main() {
  auto game = data::MakeCreditGame();
  if (!game.ok()) {
    std::cerr << game.status() << "\n";
    return 1;
  }
  auto compiled = core::Compile(*game);
  if (!compiled.ok()) {
    std::cerr << compiled.status() << "\n";
    return 1;
  }

  std::cout << "=== Applicant pool ===\n";
  std::cout << compiled->groups.size()
            << " distinct applicant risk classes (from "
            << game->adversaries.size() << " applicants)\n\n";

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "budget | bank loss | greedy-baseline loss | thresholds "
               "(audits per type)\n";

  // Each budget is an independent game-theoretic solve of the one
  // compiled game.
  double deterrence_budget = -1;
  for (int budget = 25; budget <= 250; budget += 25) {
    solver::EngineRequest request;
    request.solver = "ishm-cggs";
    request.instance = &*game;
    request.budget = budget;
    request.options.ishm.step_size = 0.2;
    const auto result = solver::Solve(request, *compiled);
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    auto detection = core::DetectionModel::Create(*game, budget);
    if (!detection.ok()) {
      std::cerr << detection.status() << "\n";
      return 1;
    }
    auto greedy = core::GreedyByBenefitBaseline(*compiled, *detection);
    if (!greedy.ok()) {
      std::cerr << greedy.status() << "\n";
      return 1;
    }
    std::cout << std::setw(6) << budget << " | " << std::setw(9)
              << result->objective << " | " << std::setw(20)
              << greedy->auditor_loss << " | [";
    for (int t = 0; t < game->num_types(); ++t) {
      if (t > 0) std::cout << ", ";
      std::cout << static_cast<int>(
          result->thresholds[static_cast<size_t>(t)]);
    }
    std::cout << "]\n";
    if (deterrence_budget < 0 && result->objective <= 1e-9) {
      deterrence_budget = budget;
    }
  }
  if (deterrence_budget > 0) {
    std::cout << "\nFull deterrence reached at budget " << deterrence_budget
              << ": every strategic applicant prefers not to commit fraud.\n";
  } else {
    std::cout << "\nNo budget in the sweep fully deters all applicants.\n";
  }
  return 0;
}
