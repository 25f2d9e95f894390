#include "lp/model.h"

#include <string>

#include <gtest/gtest.h>

namespace auditgame::lp {
namespace {

TEST(LpModelTest, VariableAccessors) {
  LpModel model;
  const int x = model.AddVariable(2.5, -1.0, 4.0);
  EXPECT_EQ(model.num_variables(), 1);
  EXPECT_DOUBLE_EQ(model.cost(x), 2.5);
  EXPECT_DOUBLE_EQ(model.lower_bound(x), -1.0);
  EXPECT_DOUBLE_EQ(model.upper_bound(x), 4.0);
}

TEST(LpModelTest, DefaultNamesAreGenerated) {
  LpModel model;
  model.AddNonNegativeVariable(0.0);
  model.AddFreeVariable(1.0);
  EXPECT_EQ(model.variable_name(0), "x0");
  EXPECT_EQ(model.variable_name(1), "x1");
  model.AddConstraint(Sense::kEqual, 1.0);
  EXPECT_EQ(model.constraint_name(0), "c0");
}

TEST(LpModelTest, CoefficientsAccumulate) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(1.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 5.0);
  model.AddCoefficient(row, x, 2.0);
  model.AddCoefficient(row, x, 3.0);
  ASSERT_EQ(model.row_vars(row).size(), 1u);
  EXPECT_DOUBLE_EQ(model.row_coeffs(row)[0], 5.0);
}

TEST(LpModelTest, RowActivityAndObjective) {
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, kInfinity);
  const int y = model.AddVariable(-2.0, 0.0, kInfinity);
  const int row = model.AddConstraint(Sense::kLessEqual, 10.0);
  model.AddCoefficient(row, x, 3.0);
  model.AddCoefficient(row, y, 1.0);
  model.AddObjectiveConstant(7.0);
  const std::vector<double> point = {2.0, 4.0};
  EXPECT_DOUBLE_EQ(model.RowActivity(row, point), 10.0);
  EXPECT_DOUBLE_EQ(model.Objective(point), 7.0 + 2.0 - 8.0);
}

TEST(LpModelTest, ValidateAcceptsWellFormed) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(1.0);
  const int row = model.AddConstraint(Sense::kGreaterEqual, 1.0);
  model.AddCoefficient(row, x, 1.0);
  EXPECT_TRUE(model.Validate().ok());
}

TEST(LpModelTest, ValidateRejectsInvertedBounds) {
  LpModel model;
  model.AddVariable(0.0, 2.0, 1.0);
  const util::Status status = model.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("variable x0 "), std::string::npos);
}

TEST(LpModelTest, ValidateRejectsNonFiniteRhs) {
  LpModel model;
  model.AddNonNegativeVariable(1.0);
  model.AddConstraint(Sense::kLessEqual, kInfinity);
  const util::Status status = model.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("constraint c0 "), std::string::npos);
}

TEST(LpModelTest, ValidateRejectsNonFiniteCoefficient) {
  LpModel model;
  const int x = model.AddNonNegativeVariable(1.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 1.0);
  model.AddCoefficient(row, x, kInfinity);
  EXPECT_FALSE(model.Validate().ok());
}

}  // namespace
}  // namespace auditgame::lp
