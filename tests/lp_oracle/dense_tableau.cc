#include "tests/lp_oracle/dense_tableau.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace auditgame::lp {
namespace {

// How each original variable maps into standard-form columns.
struct VarMap {
  enum Kind { kShiftedFromLower, kReflectedFromUpper, kFreeSplit } kind;
  int col = -1;        // primary standard-form column
  int col_neg = -1;    // second column for kFreeSplit
  double offset = 0.0; // lb (kShiftedFromLower) or ub (kReflectedFromUpper)
};

// Internal dense standard-form problem: min c'x, Ax = b (b >= 0), x >= 0.
struct StandardForm {
  int m = 0;                     // rows
  int n_structural = 0;          // columns before slacks/artificials
  int n_total = 0;               // all columns
  std::vector<double> tableau;   // (m) x (n_total + 1); rhs in last column
  std::vector<double> cost;      // phase-2 costs, size n_total
  std::vector<bool> artificial;  // per column
  std::vector<int> basis;        // basic column per row
  std::vector<int> identity_col; // column providing row i's initial identity
  std::vector<double> row_flip;  // +1/-1 applied to original row i
  std::vector<int> orig_row;     // maps standard row -> original row (-1 for
                                 // variable-bound rows)
  double objective_constant = 0.0;
  std::vector<VarMap> var_map;   // per original variable
};

class Tableau {
 public:
  Tableau(StandardForm sf, const DenseTableau::Options& options)
      : sf_(std::move(sf)), options_(options), width_(sf_.n_total + 1) {}

  double& At(int row, int col) { return sf_.tableau[row * width_ + col]; }
  double At(int row, int col) const { return sf_.tableau[row * width_ + col]; }
  double& Rhs(int row) { return sf_.tableau[row * width_ + sf_.n_total]; }
  double Rhs(int row) const { return sf_.tableau[row * width_ + sf_.n_total]; }

  const StandardForm& sf() const { return sf_; }
  StandardForm& sf() { return sf_; }

  // Runs one simplex phase with the given cost vector. `allow_enter`
  // filters candidate entering columns. Returns the number of iterations,
  // or -1 for unboundedness, -2 for the iteration cap.
  int RunPhase(const std::vector<double>& cost,
               const std::vector<bool>& allow_enter, int iteration_budget) {
    ComputeReducedCosts(cost);
    int iterations = 0;
    int stall = 0;
    bool bland = false;
    double last_objective = CurrentObjective(cost);
    for (;;) {
      const int entering = ChooseEntering(allow_enter, bland);
      if (entering < 0) return iterations;  // optimal for this phase
      // Only a basis that still has work to do can run out of budget; an
      // already-optimal basis with a zero remaining budget is optimal.
      if (iterations >= iteration_budget) return -2;
      const int leaving_row = ChooseLeavingRow(entering, bland);
      if (leaving_row < 0) return -1;  // unbounded direction
      Pivot(leaving_row, entering);
      ++iterations;
      const double objective = CurrentObjective(cost);
      if (objective < last_objective - 1e-12) {
        last_objective = objective;
        stall = 0;
        bland = false;
      } else if (!bland && ++stall > 2 * (sf_.m + 50)) {
        bland = true;  // switch to Bland's rule to escape cycling
      }
    }
  }

  double CurrentObjective(const std::vector<double>& cost) const {
    double obj = 0.0;
    for (int i = 0; i < sf_.m; ++i) obj += cost[sf_.basis[i]] * Rhs(i);
    return obj;
  }

  // Reduced costs d_j = c_j - c_B' B^{-1} A_j, maintained incrementally
  // during pivots.
  void ComputeReducedCosts(const std::vector<double>& cost) {
    d_.assign(sf_.n_total, 0.0);
    for (int j = 0; j < sf_.n_total; ++j) {
      double cbTj = 0.0;
      for (int i = 0; i < sf_.m; ++i) cbTj += cost[sf_.basis[i]] * At(i, j);
      d_[j] = cost[j] - cbTj;
    }
  }

  const std::vector<double>& reduced_costs() const { return d_; }

  // Pivots basic artificials out of the basis where possible (end of
  // phase 1). Rows left with a basic artificial are redundant (all
  // structural entries ~ 0) and remain harmless.
  void DriveOutArtificials() {
    for (int i = 0; i < sf_.m; ++i) {
      if (!sf_.artificial[sf_.basis[i]]) continue;
      int pivot_col = -1;
      for (int j = 0; j < sf_.n_total; ++j) {
        if (sf_.artificial[j]) continue;
        if (std::fabs(At(i, j)) > options_.pivot_tolerance * 10) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col >= 0) Pivot(i, pivot_col);
    }
  }

  // Dual values of the standard-form rows: y = c_B' B^{-1}. Column
  // identity_col[i] of the final tableau is B^{-1} e_i.
  std::vector<double> ComputeDuals(const std::vector<double>& cost) const {
    std::vector<double> y(sf_.m, 0.0);
    for (int i = 0; i < sf_.m; ++i) {
      double yi = 0.0;
      const int col = sf_.identity_col[i];
      for (int k = 0; k < sf_.m; ++k) yi += cost[sf_.basis[k]] * At(k, col);
      y[i] = yi;
    }
    return y;
  }

 private:
  int ChooseEntering(const std::vector<bool>& allow, bool bland) const {
    const double tol = options_.tolerance;
    if (bland) {
      for (int j = 0; j < sf_.n_total; ++j) {
        if (allow[j] && d_[j] < -tol) return j;
      }
      return -1;
    }
    int best = -1;
    double best_d = -tol;
    for (int j = 0; j < sf_.n_total; ++j) {
      if (allow[j] && d_[j] < best_d) {
        best_d = d_[j];
        best = j;
      }
    }
    return best;
  }

  // Minimum-ratio test. The previous tie-break picked the largest pivot
  // using float equality within 1e-12, so mathematically equal but
  // bitwise-different tableaus could leave through different rows across
  // platforms, breaking bit-for-bit policy-cache identity. The rule here is
  // deterministic and index-based: among near-tie ratios, keep the rows
  // whose pivot is within a coarse relative factor of the largest (numeric
  // stability without hair-trigger comparisons), then take the smallest
  // basic variable index. Under Bland's rule the pivot screen is dropped —
  // the anti-cycling theorem needs the smallest index among *all* min-ratio
  // rows, on the leaving side as well as the entering side.
  int ChooseLeavingRow(int entering, bool bland) const {
    const double tol = options_.pivot_tolerance;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < sf_.m; ++i) {
      const double a = At(i, entering);
      if (a <= tol) continue;
      const double ratio = Rhs(i) / a;
      if (ratio < best_ratio) best_ratio = ratio;
    }
    if (best_ratio == std::numeric_limits<double>::infinity()) return -1;
    const double cutoff = best_ratio + 1e-9 * (1.0 + best_ratio);
    double max_pivot = 0.0;
    for (int i = 0; i < sf_.m; ++i) {
      const double a = At(i, entering);
      if (a <= tol || Rhs(i) / a > cutoff) continue;
      max_pivot = std::max(max_pivot, a);
    }
    int best_row = -1;
    for (int i = 0; i < sf_.m; ++i) {
      const double a = At(i, entering);
      if (a <= tol || Rhs(i) / a > cutoff) continue;
      if (!bland && a < 0.1 * max_pivot) continue;
      if (best_row < 0 || sf_.basis[i] < sf_.basis[best_row]) best_row = i;
    }
    return best_row;
  }

  void Pivot(int pivot_row, int pivot_col) {
    const double pivot = At(pivot_row, pivot_col);
    const double inv = 1.0 / pivot;
    double* prow = &sf_.tableau[pivot_row * width_];
    for (int j = 0; j <= sf_.n_total; ++j) prow[j] *= inv;
    prow[pivot_col] = 1.0;  // exact
    for (int i = 0; i < sf_.m; ++i) {
      if (i == pivot_row) continue;
      double* row = &sf_.tableau[i * width_];
      const double factor = row[pivot_col];
      if (factor == 0.0) continue;
      for (int j = 0; j <= sf_.n_total; ++j) row[j] -= factor * prow[j];
      row[pivot_col] = 0.0;  // exact
    }
    // Update reduced costs.
    const double dfactor = d_[pivot_col];
    if (dfactor != 0.0) {
      for (int j = 0; j < sf_.n_total; ++j) d_[j] -= dfactor * prow[j];
      d_[pivot_col] = 0.0;
    }
    sf_.basis[pivot_row] = pivot_col;
  }

  StandardForm sf_;
  DenseTableau::Options options_;
  int width_;
  std::vector<double> d_;
};

// Builds the dense standard form from the model.
StandardForm BuildStandardForm(const LpModel& model) {
  StandardForm sf;
  const int n_orig = model.num_variables();
  const int m_orig = model.num_constraints();

  // --- Variable substitutions -------------------------------------------
  sf.var_map.resize(n_orig);
  int next_col = 0;
  int num_upper_rows = 0;
  for (int j = 0; j < n_orig; ++j) {
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    VarMap& vm = sf.var_map[j];
    if (lb == -kInfinity && ub == kInfinity) {
      vm.kind = VarMap::kFreeSplit;
      vm.col = next_col++;
      vm.col_neg = next_col++;
    } else if (lb != -kInfinity) {
      vm.kind = VarMap::kShiftedFromLower;
      vm.offset = lb;
      vm.col = next_col++;
      if (ub != kInfinity) ++num_upper_rows;  // x' <= ub - lb
    } else {
      vm.kind = VarMap::kReflectedFromUpper;
      vm.offset = ub;
      vm.col = next_col++;
    }
  }
  sf.n_structural = next_col;
  sf.m = m_orig + num_upper_rows;
  sf.objective_constant = model.objective_constant();

  // Dense A (m x n_structural), b, senses in substituted space.
  std::vector<double> dense(static_cast<size_t>(sf.m) * sf.n_structural, 0.0);
  std::vector<double> b(sf.m, 0.0);
  std::vector<Sense> senses(sf.m, Sense::kLessEqual);
  sf.orig_row.assign(sf.m, -1);

  auto add_entry = [&](int row, int var, double coef) {
    const VarMap& vm = sf.var_map[var];
    switch (vm.kind) {
      case VarMap::kFreeSplit:
        dense[static_cast<size_t>(row) * sf.n_structural + vm.col] += coef;
        dense[static_cast<size_t>(row) * sf.n_structural + vm.col_neg] -= coef;
        break;
      case VarMap::kShiftedFromLower:
        dense[static_cast<size_t>(row) * sf.n_structural + vm.col] += coef;
        b[row] -= coef * vm.offset;
        break;
      case VarMap::kReflectedFromUpper:
        dense[static_cast<size_t>(row) * sf.n_structural + vm.col] -= coef;
        b[row] -= coef * vm.offset;
        break;
    }
  };

  for (int i = 0; i < m_orig; ++i) {
    b[i] = model.rhs(i);
    senses[i] = model.sense(i);
    sf.orig_row[i] = i;
    const auto& vars = model.row_vars(i);
    const auto& coeffs = model.row_coeffs(i);
    for (size_t k = 0; k < vars.size(); ++k) add_entry(i, vars[k], coeffs[k]);
  }
  // Upper-bound rows for doubly bounded variables.
  {
    int row = m_orig;
    for (int j = 0; j < n_orig; ++j) {
      const VarMap& vm = sf.var_map[j];
      if (vm.kind == VarMap::kShiftedFromLower &&
          model.upper_bound(j) != kInfinity) {
        dense[static_cast<size_t>(row) * sf.n_structural + vm.col] = 1.0;
        b[row] = model.upper_bound(j) - model.lower_bound(j);
        senses[row] = Sense::kLessEqual;
        ++row;
      }
    }
  }

  // Costs in substituted space (+ constant from offsets).
  std::vector<double> cost(sf.n_structural, 0.0);
  for (int j = 0; j < n_orig; ++j) {
    const VarMap& vm = sf.var_map[j];
    const double c = model.cost(j);
    switch (vm.kind) {
      case VarMap::kFreeSplit:
        cost[vm.col] += c;
        cost[vm.col_neg] -= c;
        break;
      case VarMap::kShiftedFromLower:
        cost[vm.col] += c;
        sf.objective_constant += c * vm.offset;
        break;
      case VarMap::kReflectedFromUpper:
        cost[vm.col] -= c;
        sf.objective_constant += c * vm.offset;
        break;
    }
  }

  // --- Row normalization and slack/artificial columns --------------------
  sf.row_flip.assign(sf.m, 1.0);
  for (int i = 0; i < sf.m; ++i) {
    if (b[i] < 0) {
      sf.row_flip[i] = -1.0;
      b[i] = -b[i];
      for (int j = 0; j < sf.n_structural; ++j) {
        dense[static_cast<size_t>(i) * sf.n_structural + j] *= -1.0;
      }
      if (senses[i] == Sense::kLessEqual) {
        senses[i] = Sense::kGreaterEqual;
      } else if (senses[i] == Sense::kGreaterEqual) {
        senses[i] = Sense::kLessEqual;
      }
    }
  }

  int num_slacks = 0;
  int num_artificials = 0;
  for (int i = 0; i < sf.m; ++i) {
    if (senses[i] != Sense::kEqual) ++num_slacks;
    if (senses[i] != Sense::kLessEqual) ++num_artificials;
  }
  sf.n_total = sf.n_structural + num_slacks + num_artificials;

  sf.tableau.assign(static_cast<size_t>(sf.m) * (sf.n_total + 1), 0.0);
  sf.cost.assign(sf.n_total, 0.0);
  std::copy(cost.begin(), cost.end(), sf.cost.begin());
  sf.artificial.assign(sf.n_total, false);
  sf.basis.assign(sf.m, -1);
  sf.identity_col.assign(sf.m, -1);

  const int width = sf.n_total + 1;
  for (int i = 0; i < sf.m; ++i) {
    for (int j = 0; j < sf.n_structural; ++j) {
      sf.tableau[static_cast<size_t>(i) * width + j] =
          dense[static_cast<size_t>(i) * sf.n_structural + j];
    }
    sf.tableau[static_cast<size_t>(i) * width + sf.n_total] = b[i];
  }

  int next = sf.n_structural;
  for (int i = 0; i < sf.m; ++i) {
    if (senses[i] == Sense::kLessEqual) {
      sf.tableau[static_cast<size_t>(i) * width + next] = 1.0;  // slack
      sf.basis[i] = next;
      sf.identity_col[i] = next;
      ++next;
    } else if (senses[i] == Sense::kGreaterEqual) {
      sf.tableau[static_cast<size_t>(i) * width + next] = -1.0;  // surplus
      ++next;
    }
  }
  for (int i = 0; i < sf.m; ++i) {
    if (senses[i] != Sense::kLessEqual) {
      sf.tableau[static_cast<size_t>(i) * width + next] = 1.0;  // artificial
      sf.artificial[next] = true;
      sf.basis[i] = next;
      sf.identity_col[i] = next;
      ++next;
    }
  }
  CHECK_EQ(next, sf.n_total);
  return sf;
}

}  // namespace

util::StatusOr<LpSolution> DenseTableau::Solve(const LpModel& model,
                                                const Options& options) {
  RETURN_IF_ERROR(model.Validate());

  LpSolution solution;
  StandardForm sf = BuildStandardForm(model);
  const int m = sf.m;

  if (m == 0) {
    // No constraints: each variable sits at its cost-minimizing bound.
    solution.primal.assign(model.num_variables(), 0.0);
    double obj = model.objective_constant();
    for (int j = 0; j < model.num_variables(); ++j) {
      const double c = model.cost(j);
      double x;
      if (c > 0) {
        x = model.lower_bound(j);
      } else if (c < 0) {
        x = model.upper_bound(j);
      } else {
        // Zero cost: any feasible value works; take the one nearest zero
        // (max with a -inf lower bound yields 0, min with a +inf upper
        // keeps it, so the result is always finite).
        x = std::min(std::max(0.0, model.lower_bound(j)),
                     model.upper_bound(j));
      }
      if (!std::isfinite(x) && c != 0) {
        solution.status = SolveStatus::kUnbounded;
        return solution;
      }
      if (!std::isfinite(x)) x = 0;
      solution.primal[j] = x;
      obj += c * x;
    }
    solution.status = SolveStatus::kOptimal;
    solution.objective = obj;
    // With no constraints there are no duals, so a variable resting at a
    // bound keeps its full cost as its reduced cost — the same bounded-
    // variable convention the constrained path produces.
    solution.reduced_cost.assign(model.num_variables(), 0.0);
    for (int j = 0; j < model.num_variables(); ++j) {
      solution.reduced_cost[j] = model.cost(j);
    }
    return solution;
  }

  Tableau tableau(std::move(sf), options);
  const StandardForm& s = tableau.sf();

  // ---- Phase 1: minimize the sum of artificials -------------------------
  bool has_artificials = false;
  std::vector<double> phase1_cost(s.n_total, 0.0);
  for (int j = 0; j < s.n_total; ++j) {
    if (s.artificial[j]) {
      phase1_cost[j] = 1.0;
      has_artificials = true;
    }
  }
  std::vector<bool> allow_all(s.n_total, true);
  if (has_artificials) {
    const int iters =
        tableau.RunPhase(phase1_cost, allow_all, options.max_iterations);
    if (iters == -1) {
      // Phase-1 objective is bounded below by zero; an unbounded signal here
      // indicates numerical trouble.
      return util::InternalError("phase 1 reported unbounded");
    }
    if (iters == -2) {
      solution.status = SolveStatus::kIterationLimit;
      return solution;
    }
    solution.phase1_iterations = iters;
    if (tableau.CurrentObjective(phase1_cost) > options.tolerance * 100) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    tableau.DriveOutArtificials();
  }

  // ---- Phase 2: original objective, artificials barred from entering ----
  std::vector<bool> allow(s.n_total, true);
  for (int j = 0; j < s.n_total; ++j) {
    if (s.artificial[j]) allow[j] = false;
  }
  const int iters = tableau.RunPhase(
      s.cost, allow, options.max_iterations - solution.phase1_iterations);
  if (iters == -1) {
    solution.status = SolveStatus::kUnbounded;
    return solution;
  }
  if (iters == -2) {
    solution.status = SolveStatus::kIterationLimit;
    return solution;
  }
  solution.phase2_iterations = iters;
  solution.status = SolveStatus::kOptimal;
  solution.objective =
      tableau.CurrentObjective(s.cost) + tableau.sf().objective_constant;

  // ---- Recover primal in original variable space ------------------------
  std::vector<double> x_std(s.n_total, 0.0);
  for (int i = 0; i < m; ++i) x_std[s.basis[i]] = tableau.Rhs(i);
  solution.primal.assign(model.num_variables(), 0.0);
  for (int j = 0; j < model.num_variables(); ++j) {
    const VarMap& vm = s.var_map[j];
    switch (vm.kind) {
      case VarMap::kFreeSplit:
        solution.primal[j] = x_std[vm.col] - x_std[vm.col_neg];
        break;
      case VarMap::kShiftedFromLower:
        solution.primal[j] = vm.offset + x_std[vm.col];
        break;
      case VarMap::kReflectedFromUpper:
        solution.primal[j] = vm.offset - x_std[vm.col];
        break;
    }
  }

  // ---- Duals for the original rows --------------------------------------
  const std::vector<double> y = tableau.ComputeDuals(s.cost);
  solution.dual.assign(model.num_constraints(), 0.0);
  for (int i = 0; i < m; ++i) {
    if (s.orig_row[i] >= 0) {
      solution.dual[s.orig_row[i]] = s.row_flip[i] * y[i];
    }
  }

  // ---- Reduced costs in original space -----------------------------------
  solution.reduced_cost.assign(model.num_variables(), 0.0);
  for (int j = 0; j < model.num_variables(); ++j) {
    solution.reduced_cost[j] = model.cost(j);
  }
  for (int i = 0; i < model.num_constraints(); ++i) {
    const double yi = solution.dual[i];
    if (yi == 0.0) continue;
    const auto& vars = model.row_vars(i);
    const auto& coeffs = model.row_coeffs(i);
    for (size_t k = 0; k < vars.size(); ++k) {
      solution.reduced_cost[vars[k]] -= yi * coeffs[k];
    }
  }
  return solution;
}

}  // namespace auditgame::lp
