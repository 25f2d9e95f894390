#ifndef AUDIT_GAME_LP_MODEL_H_
#define AUDIT_GAME_LP_MODEL_H_

#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace auditgame::lp {

/// Sense of a linear constraint row.
enum class Sense { kLessEqual, kGreaterEqual, kEqual };

/// Positive infinity used for unbounded variable bounds.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// A linear program in the form
///
///     minimize    c'x
///     subject to  a_i'x  {<=, >=, =}  b_i     for each row i
///                 lb_j <= x_j <= ub_j         for each variable j
///
/// Rows are stored sparsely. The model is a plain builder: it performs no
/// solving itself (see RevisedSimplex). Maximization problems should be
/// expressed by negating the objective.
class LpModel {
 public:
  /// Adds a variable with objective coefficient `cost` and bounds
  /// [lower, upper]; use -kInfinity / kInfinity for free directions.
  /// Returns the variable index.
  int AddVariable(double cost, double lower, double upper);

  /// Convenience: non-negative variable.
  int AddNonNegativeVariable(double cost) {
    return AddVariable(cost, 0.0, kInfinity);
  }

  /// Convenience: free variable.
  int AddFreeVariable(double cost) {
    return AddVariable(cost, -kInfinity, kInfinity);
  }

  /// Starts a new empty constraint row `a'x sense rhs`; returns its index.
  int AddConstraint(Sense sense, double rhs);

  /// Sets (accumulates) a coefficient in a row. Requires valid indices.
  void AddCoefficient(int row, int var, double value);

  /// Appends an entry for `var`, which must not appear in `row` yet, and
  /// returns its position among the row's entries. Unlike AddCoefficient
  /// it does not scan the row: builders that know their sparsity pattern
  /// (the column-generation master) append each column exactly once.
  int AppendCoefficient(int row, int var, double value) {
    rows_[row].vars.push_back(var);
    rows_[row].coeffs.push_back(value);
    return static_cast<int>(rows_[row].vars.size()) - 1;
  }

  /// Overwrites the coefficient of entry `entry` of `row` (a position
  /// AppendCoefficient returned), keeping the sparsity pattern. Re-pricing
  /// callers rewrite a column in place this way.
  void SetCoefficientAt(int row, int entry, double value) {
    rows_[row].coeffs[static_cast<size_t>(entry)] = value;
  }

  /// Pre-sizes the model-level storage for `variables` variables and
  /// `constraints` rows. Purely an allocation hint for builders that know
  /// their final shape (the column-generation master reserves its full
  /// column budget up front so appending columns never reallocates).
  void Reserve(int variables, int constraints) {
    costs_.reserve(variables);
    lower_.reserve(variables);
    upper_.reserve(variables);
    rows_.reserve(constraints);
    senses_.reserve(constraints);
    rhs_.reserve(constraints);
  }

  /// Pre-sizes one row's sparse entry storage for `entries` coefficients.
  void ReserveRowEntries(int row, int entries) {
    rows_[row].vars.reserve(entries);
    rows_[row].coeffs.reserve(entries);
  }

  /// Adds a constant to the objective (useful when substituting out fixed
  /// variable parts); reported objective includes it.
  void AddObjectiveConstant(double value) { objective_constant_ += value; }

  int num_variables() const { return static_cast<int>(costs_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }
  double objective_constant() const { return objective_constant_; }

  double cost(int var) const { return costs_[var]; }
  double lower_bound(int var) const { return lower_[var]; }
  double upper_bound(int var) const { return upper_[var]; }
  /// Index labels "x<var>" / "c<row>" for validation messages.
  static std::string variable_name(int var) {
    return "x" + std::to_string(var);
  }
  static std::string constraint_name(int row) {
    return "c" + std::to_string(row);
  }
  Sense sense(int row) const { return senses_[row]; }
  double rhs(int row) const { return rhs_[row]; }

  /// Sparse entries of a row as parallel (variable, coefficient) vectors.
  const std::vector<int>& row_vars(int row) const { return rows_[row].vars; }
  const std::vector<double>& row_coeffs(int row) const {
    return rows_[row].coeffs;
  }

  /// Evaluates a_i'x for a dense point x.
  double RowActivity(int row, const std::vector<double>& x) const;

  /// Evaluates c'x + objective constant.
  double Objective(const std::vector<double>& x) const;

  /// Validates basic well-formedness (bounds ordered, finite rhs, ...).
  util::Status Validate() const;

 private:
  struct Row {
    std::vector<int> vars;
    std::vector<double> coeffs;
  };

  std::vector<double> costs_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Row> rows_;
  std::vector<Sense> senses_;
  std::vector<double> rhs_;
  double objective_constant_ = 0.0;
};

}  // namespace auditgame::lp

#endif  // AUDIT_GAME_LP_MODEL_H_
