// Reproduces Table V: ISHM with CGGS (column generation) as the threshold
// evaluator on Syn A, across budgets B and step sizes eps. Comparing these
// values with Table IV quantifies how much the approximate column
// generation degrades the solution versus the exact LP over all orderings.
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
  flags.Define("random_probes", "2", "random pricing probes per CGGS round");
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

  std::cout << "# Table V: ISHM + CGGS on Syn A\n";
  std::cout << "budget,eps,objective,thresholds,evaluations,"
               "distinct_evaluations,improvements,seconds\n";
  for (int budget : flags.GetIntList("budgets")) {
    for (double eps : flags.GetDoubleList("eps")) {
      util::Timer timer;
      solver::EngineRequest request;
      request.solver = "ishm-cggs";
      request.instance = &*instance;
      request.budget = budget;
      request.options.ishm.step_size = eps;
      request.options.cggs.random_probes = flags.GetInt("random_probes");
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
