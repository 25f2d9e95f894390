// Reproduces the paper's controlled evaluation on Syn A, Tables III-VII,
// from one solved grid: the brute-force optimum for each budget B, then
// ISHM with the exact full LP over all orderings (ishm-full) and ISHM with
// CGGS (ishm-cggs) for each (B, eps). Each cell is solved once, and the
// tables are printed from the results, one blank line apart:
//   III  the optimal OAP solution and the brute-force effort per budget;
//   IV   ISHM (full LP) per (B, eps): objective, thresholds, counters;
//   V    the same for ISHM + CGGS;
//   VI   mean precision per eps, gamma = 1 - mean_B |approx_B - opt_B| /
//        |opt_B| (gamma1 = ISHM, gamma2 = ISHM+CGGS);
//   VII  threshold vectors ISHM checks per (eps, B), their mean over the
//        budgets (T) and that mean over the brute-force search space (T').
// stdout holds no timings, so at default flags it equals
// bench/expected/syn_a_tables.csv byte for byte; the solve time of each
// backend goes to one line on stderr.
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/game.h"
#include "data/syn_a.h"
#include "solver/solver.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

using Cells = std::vector<solver::SolveResult>;

/// The solved grid. optimal[b] is budgets[b]'s brute-force result; the ISHM
/// cells are budget-major: full[b * eps.size() + e] is (budgets[b], eps[e]).
struct Grid {
  std::vector<int> budgets;
  std::vector<double> eps;
  Cells optimal, full, cggs;
};

/// Solves `backend` at every (budget, step size) pair, budget-major, and
/// adds the wall time to `seconds`.
util::StatusOr<Cells> SolveCells(const char* backend,
                                 const core::GameInstance& instance,
                                 const core::CompiledGame& game,
                                 const std::vector<int>& budgets,
                                 const std::vector<double>& step_sizes,
                                 double& seconds) {
  util::Timer timer;
  Cells cells;
  for (int budget : budgets) {
    for (double step_size : step_sizes) {
      solver::EngineRequest request;
      request.solver = backend;
      request.instance = &instance;
      request.budget = budget;
      request.options.ishm.step_size = step_size;
      auto cell = solver::Solve(request, game);
      if (!cell.ok()) {
        return util::Status(cell.status().code(),
                            std::string(backend) + " B=" +
                                std::to_string(budget) + ": " +
                                cell.status().message());
      }
      cells.push_back(std::move(*cell));
    }
  }
  seconds += timer.ElapsedSeconds();
  return cells;
}

/// The paper's thresholds are whole audits per type.
std::string Audits(const core::GameInstance& instance,
                   const std::vector<double>& thresholds) {
  std::vector<int> audits;
  for (size_t t = 0; t < thresholds.size(); ++t) {
    audits.push_back(static_cast<int>(
        std::llround(thresholds[t] / instance.audit_costs[t])));
  }
  return "\"" + util::FormatIntVector(audits) + "\"";
}

void PrintTable3(const core::GameInstance& instance, const Grid& grid) {
  std::cout << "# Table III: optimal OAP solution on Syn A (brute force)\n"
               "budget,objective,thresholds,support,orderings,mixed_strategy,"
               "vectors_evaluated,search_space\n";
  for (size_t b = 0; b < grid.budgets.size(); ++b) {
    const solver::SolveResult& result = grid.optimal[b];
    std::string orderings;
    for (const auto& o : result.policy.orderings) {
      orderings += "[";
      for (int t : o) orderings += std::to_string(t + 1);  // paper: 1-based
      orderings += "]";
    }
    std::cout << grid.budgets[b] << "," << result.objective << ","
              << Audits(instance, result.thresholds) << ","
              << result.policy.orderings.size() << ",\"" << orderings << "\",\""
              << util::FormatDoubleVector(result.policy.probabilities) << "\","
              << result.stats.vectors_evaluated << ","
              << result.stats.search_space << "\n";
  }
}

/// Tables IV (`cells` = grid.full) and V (grid.cggs).
void PrintIshmTable(const core::GameInstance& instance, const Grid& grid,
                    const Cells& cells, const char* title) {
  std::cout << "# " << title << "\n"
            << "budget,eps,objective,thresholds,evaluations,"
               "distinct_evaluations,improvements\n";
  for (size_t b = 0; b < grid.budgets.size(); ++b) {
    for (size_t e = 0; e < grid.eps.size(); ++e) {
      const solver::SolveResult& result = cells[b * grid.eps.size() + e];
      std::cout << grid.budgets[b] << "," << grid.eps[e] << ","
                << result.objective << ","
                << Audits(instance, result.thresholds) << ","
                << result.stats.evaluations << ","
                << result.stats.distinct_evaluations << ","
                << result.stats.improvements << "\n";
    }
  }
}

void PrintTable6(const Grid& grid) {
  std::cout << "# Table VI: mean precision over budgets (gamma1 = ISHM, "
               "gamma2 = ISHM+CGGS)\neps,gamma1,gamma2\n";
  for (size_t e = 0; e < grid.eps.size(); ++e) {
    double err1 = 0.0, err2 = 0.0;
    for (size_t b = 0; b < grid.budgets.size(); ++b) {
      const double opt = grid.optimal[b].objective;
      const size_t cell = b * grid.eps.size() + e;
      err1 += std::fabs(grid.full[cell].objective - opt) / std::fabs(opt);
      err2 += std::fabs(grid.cggs[cell].objective - opt) / std::fabs(opt);
    }
    std::cout << grid.eps[e] << "," << 1.0 - err1 / grid.budgets.size() << ","
              << 1.0 - err2 / grid.budgets.size() << "\n";
  }
}

void PrintTable7(const Grid& grid) {
  // prod_t (J_t + 1), the same at every budget.
  const double search_space =
      static_cast<double>(grid.optimal[0].stats.search_space);
  std::cout << "# Table VII: threshold vectors checked by ISHM\neps";
  for (int budget : grid.budgets) std::cout << ",B" << budget;
  std::cout << ",T_mean,T_ratio\n";
  for (size_t e = 0; e < grid.eps.size(); ++e) {
    std::cout << grid.eps[e];
    double total = 0.0;
    for (size_t b = 0; b < grid.budgets.size(); ++b) {
      const int64_t evaluations =
          grid.full[b * grid.eps.size() + e].stats.evaluations;
      std::cout << "," << evaluations;
      total += static_cast<double>(evaluations);
    }
    const double mean = total / grid.budgets.size();
    std::cout << "," << mean << "," << mean / search_space << "\n";
  }
}

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
  auto budgets = flags.GetNonEmptyList<int>("budgets");
  auto eps = flags.GetNonEmptyList<double>("eps");
  if (!budgets.ok() || !eps.ok()) {
    std::cerr << (budgets.ok() ? eps.status() : budgets.status()) << "\n";
    return 1;
  }
  auto instance = data::MakeSynA();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }
  auto game = core::Compile(*instance);
  if (!game.ok()) {
    std::cerr << game.status() << "\n";
    return 1;
  }

  double seconds[3] = {0.0, 0.0, 0.0};
  auto optimal = SolveCells("brute-force", *instance, *game, *budgets, {0.0},
                            seconds[0]);
  if (!optimal.ok()) {
    std::cerr << optimal.status() << "\n";
    return 1;
  }
  auto full =
      SolveCells("ishm-full", *instance, *game, *budgets, *eps, seconds[1]);
  if (!full.ok()) {
    std::cerr << full.status() << "\n";
    return 1;
  }
  auto cggs =
      SolveCells("ishm-cggs", *instance, *game, *budgets, *eps, seconds[2]);
  if (!cggs.ok()) {
    std::cerr << cggs.status() << "\n";
    return 1;
  }
  const Grid grid{std::move(*budgets), std::move(*eps), std::move(*optimal),
                  std::move(*full), std::move(*cggs)};

  PrintTable3(*instance, grid);
  std::cout << "\n";
  PrintIshmTable(*instance, grid, grid.full,
                 "Table IV: ISHM (exact LP evaluator) on Syn A");
  std::cout << "\n";
  PrintIshmTable(*instance, grid, grid.cggs, "Table V: ISHM + CGGS on Syn A");
  std::cout << "\n";
  PrintTable6(grid);
  std::cout << "\n";
  PrintTable7(grid);
  std::cerr << "seconds: brute-force " << seconds[0] << ", ishm-full "
            << seconds[1] << ", ishm-cggs " << seconds[2] << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
