// Reproduces Table VII and the T / T' vectors of Section IV-C: the number
// of threshold vectors ISHM checks per (budget, step size), the per-eps
// average over budgets (T), and that average as a fraction of the
// brute-force search space (T'). Each row solves its (eps, budget) cells
// with ishm-full as it is printed.
#include <iostream>
#include <vector>

#include "data/syn_a.h"
#include "solver/solver.h"
#include "util/flags.h"

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
  const std::vector<int> budgets = flags.GetIntList("budgets");
  const std::vector<double> eps_list = flags.GetDoubleList("eps");
  if (budgets.empty() || eps_list.empty()) {
    std::cerr << "--budgets and --eps must each list at least one value\n";
    return 1;
  }

  auto instance = data::MakeSynA();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }

  // Brute-force search-space size: prod_t (J_t + 1).
  uint64_t search_space = 1;
  for (int t = 0; t < instance->num_types(); ++t) {
    search_space *= static_cast<uint64_t>(
                        instance->alert_distributions[t].max_value()) + 1;
  }

  std::cout << "# Table VII: threshold vectors checked by ISHM\n";
  std::cout << "eps";
  for (int budget : budgets) std::cout << ",B" << budget;
  std::cout << ",T_mean,T_ratio\n";
  for (double eps : eps_list) {
    std::cout << eps;
    double total = 0.0;
    for (int budget : budgets) {
      solver::EngineRequest request;
      request.solver = "ishm-full";
      request.instance = &*instance;
      request.budget = budget;
      request.options.ishm.step_size = eps;
      const auto result = solver::Solve(request);
      if (!result.ok()) {
        std::cerr << result.status() << "\n";
        return 1;
      }
      std::cout << "," << result->stats.evaluations;
      total += static_cast<double>(result->stats.evaluations);
    }
    const double mean = total / budgets.size();
    std::cout << "," << mean << ","
              << mean / static_cast<double>(search_space) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
