// Reproduces Table III: the optimal OAP solution on Syn A under budgets
// B = 2..20, found by brute force over integer threshold vectors with the
// full LP (all 4! = 24 orderings) solved exactly for each.
//
// Columns: budget, optimal objective, optimal thresholds, support size,
// effective pure strategies and the optimal mixed strategy.
#include <cmath>
#include <iostream>
#include <string>

#include "core/detection.h"
#include "data/syn_a.h"
#include "solver/solver.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("budgets", "2,4,6,8,10,12,14,16,18,20",
               "comma-separated audit budgets B");
  flags.Define("semantics", "ratio",
               "detection semantics: ratio | inclusive | roe");
  flags.Define("consumption", "realized",
               "budget consumed by earlier types: realized | reserved");
  flags.Define("gauss_shift", "0",
               "Gaussian discretization window shift (0 = midpoint)");
  flags.Define("benign", "optout",
               "benign '-' accesses: cost | optout | global");
  const auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }

  data::SynAOptions syn_options;
  syn_options.gauss_shift = flags.GetDouble("gauss_shift");
  const std::string benign = flags.GetString("benign");
  if (benign == "cost") {
    syn_options.benign_mode = data::SynABenignMode::kCostlyAccess;
  } else if (benign == "optout") {
    syn_options.benign_mode = data::SynABenignMode::kFreeOptOut;
  } else if (benign == "global") {
    syn_options.benign_mode = data::SynABenignMode::kGlobalOptOut;
  } else {
    std::cerr << "unknown --benign value: " << benign << "\n";
    return 1;
  }
  auto instance = data::MakeSynAVariant(syn_options);
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }

  std::cout << "# Table III: optimal OAP solution on Syn A (brute force)\n";
  std::cout << "budget,objective,thresholds,support,orderings,mixed_strategy,"
               "vectors_evaluated,search_space,seconds\n";
  core::DetectionModel::Options detection_options;
  const std::string semantics = flags.GetString("semantics");
  if (semantics == "ratio") {
    detection_options.semantics =
        core::DetectionModel::Semantics::kExpectedRatio;
  } else if (semantics == "inclusive") {
    detection_options.semantics =
        core::DetectionModel::Semantics::kInclusiveAttack;
  } else if (semantics == "roe") {
    detection_options.semantics =
        core::DetectionModel::Semantics::kRatioOfExpectations;
  } else {
    std::cerr << "unknown --semantics value: " << semantics << "\n";
    return 1;
  }
  detection_options.consumption =
      flags.GetString("consumption") == "reserved"
          ? core::DetectionModel::Consumption::kReserved
          : core::DetectionModel::Consumption::kRealized;

  for (int budget : flags.GetIntList("budgets")) {
    util::Timer timer;
    solver::EngineRequest request;
    request.solver = "brute-force";
    request.instance = &*instance;
    request.budget = budget;
    request.detection_options = detection_options;
    auto result = solver::Solve(request);
    if (!result.ok()) {
      std::cerr << "budget " << budget << ": " << result.status() << "\n";
      return 1;
    }
    std::string orderings;
    for (const auto& o : result->policy.orderings) {
      std::string text;
      for (int t : o) text += std::to_string(t + 1);  // paper is 1-based
      orderings += "[" + text + "]";
    }
    std::vector<int> audits(static_cast<size_t>(instance->num_types()));
    for (int t = 0; t < instance->num_types(); ++t) {
      audits[static_cast<size_t>(t)] = static_cast<int>(
          std::llround(result->thresholds[static_cast<size_t>(t)] /
                       instance->audit_costs[static_cast<size_t>(t)]));
    }
    std::cout << budget << "," << result->objective << ",\""
              << util::FormatIntVector(audits) << "\","
              << result->policy.orderings.size() << ",\"" << orderings
              << "\",\""
              << util::FormatDoubleVector(result->policy.probabilities)
              << "\"," << result->stats.vectors_evaluated << ","
              << result->stats.search_space << "," << timer.ElapsedSeconds()
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
