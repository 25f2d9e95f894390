// Ablation: how the modeling conventions left ambiguous by the paper's text
// change the optimal objective on Syn A (Table III). Sweeps:
//   * detection semantics — E[n/Z] (Eq. 1 literal) vs inclusive-attack
//     n/(Z+1) vs ratio-of-expectations E[n]/E[Z];
//   * budget consumption of earlier types — realized min(b, Z*C) vs
//     reserved b;
//   * treatment of the benign "-" accesses — costly access vs free opt-out.
// The (ratio, realized, optout) cell is the configuration that reproduces
// Table III within ~1% (see docs/DESIGN.md "Calibration notes").
//
// Every cell is a brute-force solve, run as its row is printed.
#include <iostream>
#include <string>
#include <vector>

#include "data/syn_a.h"
#include "solver/solver.h"
#include "util/flags.h"

namespace {

using namespace auditgame;  // NOLINT

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("budgets", "2,8,14,20", "budgets to probe");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  const std::vector<int> budgets = flags.GetIntList("budgets");

  struct SemanticsCase {
    const char* name;
    core::DetectionModel::Semantics value;
  };
  struct ConsumptionCase {
    const char* name;
    core::DetectionModel::Consumption value;
  };
  struct BenignCase {
    const char* name;
    data::SynABenignMode value;
  };
  const SemanticsCase semantics_cases[] = {
      {"ratio", core::DetectionModel::Semantics::kExpectedRatio},
      {"inclusive", core::DetectionModel::Semantics::kInclusiveAttack},
      {"roe", core::DetectionModel::Semantics::kRatioOfExpectations},
  };
  const ConsumptionCase consumption_cases[] = {
      {"realized", core::DetectionModel::Consumption::kRealized},
      {"reserved", core::DetectionModel::Consumption::kReserved},
  };
  const BenignCase benign_cases[] = {
      {"optout", data::SynABenignMode::kFreeOptOut},
      {"cost", data::SynABenignMode::kCostlyAccess},
  };

  // The two benign variants are distinct instances, built once.
  std::vector<core::GameInstance> instances;
  for (const auto& benign : benign_cases) {
    data::SynAOptions syn_options;
    syn_options.benign_mode = benign.value;
    auto instance = data::MakeSynAVariant(syn_options);
    if (!instance.ok()) {
      std::cerr << instance.status() << "\n";
      return 1;
    }
    instances.push_back(std::move(*instance));
  }

  std::cout << "# Ablation: optimal Syn A objective under modeling variants\n";
  std::cout << "semantics,consumption,benign";
  for (int b : budgets) std::cout << ",B" << b;
  std::cout << "\n";
  for (const auto& semantics : semantics_cases) {
    for (const auto& consumption : consumption_cases) {
      for (size_t benign = 0; benign < instances.size(); ++benign) {
        std::cout << semantics.name << "," << consumption.name << ","
                  << benign_cases[benign].name;
        for (int budget : budgets) {
          solver::EngineRequest request;
          request.solver = "brute-force";
          request.instance = &instances[benign];
          request.budget = budget;
          request.detection_options.semantics = semantics.value;
          request.detection_options.consumption = consumption.value;
          const auto result = solver::Solve(request);
          if (!result.ok()) {
            std::cerr << result.status() << "\n";
            return 1;
          }
          std::cout << "," << result->objective;
        }
        std::cout << "\n";
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
