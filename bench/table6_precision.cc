// Reproduces Table VI: average approximation precision of ISHM (gamma^1)
// and ISHM+CGGS (gamma^2) over the budget range, per step size eps:
//   gamma = 1 - (1/|B|) sum_B |approx_B - opt_B| / |opt_B|.
// Ground truth comes from the brute-force solver (Table III).
//
// Every cell — the per-budget ground truth and each (eps, budget, variant)
// ISHM run — is an independent solve, so the whole table is fanned through
// solver::SolverEngine in two batches.
#include <cmath>
#include <iostream>
#include <map>
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
  solver::SolverEngine engine(*threads);

  // Ground truth per budget.
  std::vector<solver::EngineRequest> truth_requests;
  for (int budget : budgets) {
    solver::EngineRequest request;
    request.solver = "brute-force";
    request.instance = &*instance;
    request.budget = budget;
    truth_requests.push_back(std::move(request));
  }
  const auto truth = engine.SolveAll(truth_requests);
  std::map<int, double> optimal;
  for (size_t b = 0; b < budgets.size(); ++b) {
    if (!truth[b].ok()) {
      std::cerr << truth[b].status() << "\n";
      return 1;
    }
    optimal[budgets[b]] = truth[b]->objective;
  }

  // Every (eps, budget) cell for both evaluators, in one batch.
  std::vector<solver::EngineRequest> requests;
  for (double eps : eps_list) {
    for (int budget : budgets) {
      for (const char* name : {"ishm-full", "ishm-cggs"}) {
        solver::EngineRequest request;
        request.solver = name;
        request.instance = &*instance;
        request.budget = budget;
        request.options.ishm.step_size = eps;
        requests.push_back(std::move(request));
      }
    }
  }
  const auto cells = engine.SolveAll(requests);

  std::cout << "# Table VI: mean precision over budgets (gamma1 = ISHM, "
               "gamma2 = ISHM+CGGS)\n";
  std::cout << "eps,gamma1,gamma2\n";
  size_t cell = 0;
  for (double eps : eps_list) {
    double err1 = 0.0, err2 = 0.0;
    for (int budget : budgets) {
      const auto& full = cells[cell++];
      const auto& cggs = cells[cell++];
      if (!full.ok() || !cggs.ok()) {
        std::cerr << full.status() << " / " << cggs.status() << "\n";
        return 1;
      }
      const double opt = optimal[budget];
      err1 += std::fabs(full->objective - opt) / std::fabs(opt);
      err2 += std::fabs(cggs->objective - opt) / std::fabs(opt);
    }
    std::cout << eps << "," << 1.0 - err1 / budgets.size() << ","
              << 1.0 - err2 / budgets.size() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
