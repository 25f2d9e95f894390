// Reproduces Table VII and the T / T' vectors of Section IV-C: the number
// of threshold vectors ISHM checks per (budget, step size), the per-eps
// average over budgets (T), and that average as a fraction of the
// brute-force search space (T'). All (eps, budget) cells are independent
// ishm-full solves, fanned through solver::SolverEngine in one batch.
#include <iostream>
#include <vector>

#include "bench/engine/solver_engine.h"
#include "data/syn_a.h"
#include "util/flags.h"

namespace {

using namespace auditgame;  // NOLINT

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("budgets", "2,4,6,8,10,12,14,16,18,20", "audit budgets B");
  flags.Define("eps", "0.05,0.10,0.15,0.20,0.25,0.30,0.35,0.40,0.45,0.50",
               "ISHM step sizes");
  flags.Define("threads", "0", "solver engine workers (0 = one per core)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  const util::StatusOr<int> threads = flags.GetIntAtLeast("threads", 0);
  if (!threads.ok()) {
    std::cerr << threads.status() << "\n";
    return 1;
  }

  auto instance = data::MakeSynA();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }
  const std::vector<int> budgets = flags.GetIntList("budgets");
  const std::vector<double> eps_list = flags.GetDoubleList("eps");

  // Brute-force search-space size: prod_t (J_t + 1).
  uint64_t search_space = 1;
  for (int t = 0; t < instance->num_types(); ++t) {
    search_space *= static_cast<uint64_t>(
                        instance->alert_distributions[t].max_value()) + 1;
  }

  std::vector<solver::EngineRequest> requests;
  for (double eps : eps_list) {
    for (int budget : budgets) {
      solver::EngineRequest request;
      request.solver = "ishm-full";
      request.instance = &*instance;
      request.budget = budget;
      request.options.ishm.step_size = eps;
      requests.push_back(std::move(request));
    }
  }
  solver::SolverEngine engine(*threads);
  const auto cells = engine.SolveAll(requests);

  std::cout << "# Table VII: threshold vectors checked by ISHM\n";
  std::cout << "eps";
  for (int budget : budgets) std::cout << ",B" << budget;
  std::cout << ",T_mean,T_ratio\n";
  size_t cell = 0;
  for (double eps : eps_list) {
    std::cout << eps;
    double total = 0.0;
    for (size_t b = 0; b < budgets.size(); ++b) {
      const auto& result = cells[cell++];
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
