// Reproduces Table VI: average approximation precision of ISHM (gamma^1)
// and ISHM+CGGS (gamma^2) over the budget range, per step size eps:
//   gamma = 1 - (1/|B|) sum_B |approx_B - opt_B| / |opt_B|.
// Ground truth comes from the brute-force solver (Table III), solved for
// every budget first; each eps row then solves its ISHM cells as it is
// printed.
#include <cmath>
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
  auto solve = [&](const char* name, int budget, double eps) {
    solver::EngineRequest request;
    request.solver = name;
    request.instance = &*instance;
    request.budget = budget;
    request.options.ishm.step_size = eps;
    return solver::Solve(request);
  };

  // Ground truth per budget, in --budgets order.
  std::vector<double> optimal;
  for (int budget : budgets) {
    const auto truth = solve("brute-force", budget, 0.0);
    if (!truth.ok()) {
      std::cerr << truth.status() << "\n";
      return 1;
    }
    optimal.push_back(truth->objective);
  }

  std::cout << "# Table VI: mean precision over budgets (gamma1 = ISHM, "
               "gamma2 = ISHM+CGGS)\n";
  std::cout << "eps,gamma1,gamma2\n";
  for (double eps : eps_list) {
    double err1 = 0.0, err2 = 0.0;
    for (size_t b = 0; b < budgets.size(); ++b) {
      const auto full = solve("ishm-full", budgets[b], eps);
      const auto cggs = solve("ishm-cggs", budgets[b], eps);
      if (!full.ok() || !cggs.ok()) {
        std::cerr << full.status() << " / " << cggs.status() << "\n";
        return 1;
      }
      err1 += std::fabs(full->objective - optimal[b]) / std::fabs(optimal[b]);
      err2 += std::fabs(cggs->objective - optimal[b]) / std::fabs(optimal[b]);
    }
    std::cout << eps << "," << 1.0 - err1 / budgets.size() << ","
              << 1.0 - err2 / budgets.size() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
