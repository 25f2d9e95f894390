// Quickstart: build a small alert-prioritization game from scratch, solve
// it with CGGS + ISHM, and print the resulting randomized audit policy.
//
// Scenario: a small clinic's TDMT raises three alert types with different
// daily volumes and severities; the privacy office can afford B = 6 audits
// per day. Which alerts should be checked first, and how many of each?
#include <iostream>

#include "core/detection.h"
#include "core/game.h"
#include "core/policy.h"
#include "prob/count_distribution.h"
#include "solver/solver.h"
#include "util/string_util.h"

using namespace auditgame;  // NOLINT

namespace {

core::GameInstance BuildClinicGame() {
  core::GameInstance game;
  game.type_names = {"vip-record", "coworker", "neighbor"};
  // Auditing a VIP access takes twice as long as the others.
  game.audit_costs = {2.0, 1.0, 1.0};
  // Daily benign alert volumes (learned from historical logs in practice;
  // see the emr_audit example for that pipeline).
  game.alert_distributions = {
      *prob::CountDistribution::DiscretizedGaussianWithCoverage(4, 1.5),
      *prob::CountDistribution::DiscretizedGaussianWithCoverage(9, 3.0),
      *prob::CountDistribution::DiscretizedGaussianWithCoverage(6, 2.0),
  };
  // Two kinds of insiders. Each may snoop on a victim whose access raises
  // one of the alert types, or behave (opt out, utility 0).
  auto victim = [](int type, double benefit) {
    core::VictimProfile v;
    v.type_probs = {0, 0, 0};
    v.type_probs[static_cast<size_t>(type)] = 1.0;
    v.benefit = benefit;
    v.penalty = 10.0;     // fired if caught
    v.attack_cost = 0.5;  // effort to snoop
    return v;
  };
  core::Adversary nurse;
  nurse.attack_probability = 1.0;
  nurse.can_opt_out = true;
  nurse.victims = {victim(0, 8.0), victim(1, 3.0), victim(2, 4.0)};
  core::Adversary clerk;
  clerk.attack_probability = 0.6;
  clerk.can_opt_out = true;
  clerk.victims = {victim(1, 5.0), victim(2, 2.0)};
  game.adversaries = {nurse, clerk};
  return game;
}

}  // namespace

int main() {
  const core::GameInstance game = BuildClinicGame();
  const double budget = 6.0;

  // The "ishm-cggs" backend: ISHM searches the per-type budget thresholds,
  // CGGS finds the optimal randomized ordering for each candidate vector.
  // Swap the name for "brute-force" (exact, small games only) or
  // "ishm-full" without touching the rest of this program.
  solver::EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &game;
  request.budget = budget;
  request.options.ishm.step_size = 0.1;
  auto result = solver::Solve(request);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }

  std::cout << "=== Clinic audit policy (budget " << budget << ") ===\n";
  std::cout << "Expected auditor loss: " << result->objective << "\n";
  std::cout << "Per-type audit thresholds (budget units):\n";
  for (int t = 0; t < game.num_types(); ++t) {
    std::cout << "  " << game.type_names[static_cast<size_t>(t)] << ": "
              << result->thresholds[static_cast<size_t>(t)] << "\n";
  }
  std::cout << "Randomized inspection order (draw one each day):\n";
  for (size_t o = 0; o < result->policy.orderings.size(); ++o) {
    std::cout << "  with p = " << result->policy.probabilities[o] << ": ";
    for (int t : result->policy.orderings[o]) {
      std::cout << game.type_names[static_cast<size_t>(t)] << " ";
    }
    std::cout << "\n";
  }

  // How likely is each alert type to be audited under the mixture?
  auto detection = core::DetectionModel::Create(game, budget);
  if (!detection.ok()) {
    std::cerr << detection.status() << "\n";
    return 1;
  }
  auto mixed = core::MixedDetectionProbabilities(*detection, result->policy);
  if (!mixed.ok()) {
    std::cerr << mixed.status() << "\n";
    return 1;
  }
  std::cout << "Detection probability per alert type:\n";
  for (int t = 0; t < game.num_types(); ++t) {
    std::cout << "  " << game.type_names[static_cast<size_t>(t)] << ": "
              << (*mixed)[static_cast<size_t>(t)] << "\n";
  }
  return 0;
}
