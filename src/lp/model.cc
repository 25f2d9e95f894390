#include "lp/model.h"

#include <cmath>
#include <string>

namespace auditgame::lp {

int LpModel::AddVariable(double cost, double lower, double upper) {
  costs_.push_back(cost);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return num_variables() - 1;
}

int LpModel::AddConstraint(Sense sense, double rhs) {
  rows_.emplace_back();
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  return num_constraints() - 1;
}

void LpModel::AddCoefficient(int row, int var, double value) {
  Row& r = rows_[row];
  // Accumulate into an existing entry if present (callers may add the same
  // variable twice, e.g. when building utility rows term by term).
  for (size_t k = 0; k < r.vars.size(); ++k) {
    if (r.vars[k] == var) {
      r.coeffs[k] += value;
      return;
    }
  }
  r.vars.push_back(var);
  r.coeffs.push_back(value);
}

double LpModel::RowActivity(int row, const std::vector<double>& x) const {
  const Row& r = rows_[row];
  double activity = 0.0;
  for (size_t k = 0; k < r.vars.size(); ++k) {
    activity += r.coeffs[k] * x[r.vars[k]];
  }
  return activity;
}

double LpModel::Objective(const std::vector<double>& x) const {
  double obj = objective_constant_;
  for (int j = 0; j < num_variables(); ++j) obj += costs_[j] * x[j];
  return obj;
}

util::Status LpModel::Validate() const {
  for (int j = 0; j < num_variables(); ++j) {
    if (lower_[j] > upper_[j]) {
      return util::InvalidArgumentError("variable " + variable_name(j) +
                                        " has lower bound > upper bound");
    }
    if (!std::isfinite(costs_[j])) {
      return util::InvalidArgumentError("variable " + variable_name(j) +
                                        " has non-finite cost");
    }
  }
  for (int i = 0; i < num_constraints(); ++i) {
    if (!std::isfinite(rhs_[i])) {
      return util::InvalidArgumentError("constraint " + constraint_name(i) +
                                        " has non-finite rhs");
    }
    for (double c : rows_[i].coeffs) {
      if (!std::isfinite(c)) {
        return util::InvalidArgumentError("constraint " + constraint_name(i) +
                                          " has non-finite coefficient");
      }
    }
  }
  return util::OkStatus();
}

}  // namespace auditgame::lp
