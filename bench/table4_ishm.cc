// Reproduces Table IV: ISHM (with the exact full LP over all orderings as
// the threshold evaluator) on Syn A across budgets B and step sizes eps.
// Each cell reports the approximate optimal auditor loss and the threshold
// vector ISHM settled on, plus the search-effort counters that also feed
// Table VII.
#include <iostream>
#include <string>
#include <vector>

#include "data/syn_a.h"
#include "solver/solver.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("budgets", "2,4,6,8,10,12,14,16,18,20", "audit budgets B");
  flags.Define("eps", "0.05,0.10,0.15,0.20,0.25,0.30,0.35,0.40,0.45,0.50",
               "ISHM step sizes");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }

  auto instance = data::MakeSynA();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }

  std::cout << "# Table IV: ISHM (exact LP evaluator) on Syn A\n";
  std::cout << "budget,eps,objective,thresholds,evaluations,"
               "distinct_evaluations,improvements,seconds\n";
  for (int budget : flags.GetIntList("budgets")) {
    for (double eps : flags.GetDoubleList("eps")) {
      util::Timer timer;
      solver::EngineRequest request;
      request.solver = "ishm-full";
      request.instance = &*instance;
      request.budget = budget;
      request.options.ishm.step_size = eps;
      auto result = solver::Solve(request);
      if (!result.ok()) {
        std::cerr << "B=" << budget << " eps=" << eps << ": "
                  << result.status() << "\n";
        return 1;
      }
      std::vector<int> audits(static_cast<size_t>(instance->num_types()));
      for (int t = 0; t < instance->num_types(); ++t) {
        audits[static_cast<size_t>(t)] = static_cast<int>(
            result->thresholds[static_cast<size_t>(t)] /
            instance->audit_costs[static_cast<size_t>(t)]);
      }
      std::cout << budget << "," << eps << "," << result->objective << ",\""
                << util::FormatIntVector(audits) << "\","
                << result->stats.evaluations << ","
                << result->stats.distinct_evaluations << ","
                << result->stats.improvements << "," << timer.ElapsedSeconds()
                << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
