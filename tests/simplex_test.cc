#include "tests/lp_oracle/dense_tableau.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "lp/model.h"
#include "lp/validate.h"
#include "util/random.h"

namespace auditgame::lp {
namespace {

LpSolution SolveOrDie(const LpModel& model) {
  auto solution = DenseTableau::Solve(model);
  EXPECT_TRUE(solution.ok()) << solution.status();
  return *solution;
}

TEST(SimplexTest, SimpleTwoVariableMin) {
  // min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, 3.0);
  const int y = model.AddVariable(-2.0, 0.0, 2.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 4.0);
  model.AddCoefficient(row, x, 1.0);
  model.AddCoefficient(row, y, 1.0);

  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -6.0, 1e-9);
  EXPECT_NEAR(solution.primal[x], 2.0, 1e-9);
  EXPECT_NEAR(solution.primal[y], 2.0, 1e-9);
  EXPECT_TRUE(CheckOptimality(model, solution).ok());
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y s.t. x + 2y = 3, x,y >= 0  ->  y = 1.5, x = 0, obj 1.5.
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, kInfinity);
  const int y = model.AddVariable(1.0, 0.0, kInfinity);
  const int row = model.AddConstraint(Sense::kEqual, 3.0);
  model.AddCoefficient(row, x, 1.0);
  model.AddCoefficient(row, y, 2.0);

  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 1.5, 1e-9);
  EXPECT_NEAR(solution.primal[y], 1.5, 1e-9);
  EXPECT_TRUE(CheckOptimality(model, solution).ok());
}

TEST(SimplexTest, FreeVariable) {
  // min u s.t. u >= 3 - x, u >= x - 1, 0 <= x <= 10, u free.
  // Optimum: x = 2, u = 1.
  LpModel model;
  const int u = model.AddVariable(1.0, -kInfinity, kInfinity);
  const int x = model.AddVariable(0.0, 0.0, 10.0);
  const int r1 = model.AddConstraint(Sense::kGreaterEqual, 3.0);
  model.AddCoefficient(r1, u, 1.0);
  model.AddCoefficient(r1, x, 1.0);
  const int r2 = model.AddConstraint(Sense::kGreaterEqual, -1.0);
  model.AddCoefficient(r2, u, 1.0);
  model.AddCoefficient(r2, x, -1.0);

  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 1.0, 1e-8);
  EXPECT_NEAR(solution.primal[u], 1.0, 1e-8);
  EXPECT_NEAR(solution.primal[x], 2.0, 1e-8);
  EXPECT_TRUE(CheckOptimality(model, solution).ok());
}

TEST(SimplexTest, NegativeObjectiveValue) {
  // min x with x >= -5 (free direction blocked by constraint).
  LpModel model;
  const int x = model.AddVariable(1.0, -kInfinity, kInfinity);
  const int row = model.AddConstraint(Sense::kGreaterEqual, -5.0);
  model.AddCoefficient(row, x, 1.0);

  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -5.0, 1e-9);
}

TEST(SimplexTest, DetectsInfeasible) {
  // x >= 2 and x <= 1.
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, kInfinity);
  const int r1 = model.AddConstraint(Sense::kGreaterEqual, 2.0);
  model.AddCoefficient(r1, x, 1.0);
  const int r2 = model.AddConstraint(Sense::kLessEqual, 1.0);
  model.AddCoefficient(r2, x, 1.0);

  const LpSolution solution = SolveOrDie(model);
  EXPECT_EQ(solution.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  // min -x, x >= 0, only constraint x >= 1.
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, kInfinity);
  const int row = model.AddConstraint(Sense::kGreaterEqual, 1.0);
  model.AddCoefficient(row, x, 1.0);

  const LpSolution solution = SolveOrDie(model);
  EXPECT_EQ(solution.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple constraints active at the origin).
  LpModel model;
  const int x = model.AddVariable(-0.75, 0.0, kInfinity);
  const int y = model.AddVariable(150.0, 0.0, kInfinity);
  const int z = model.AddVariable(-0.02, 0.0, kInfinity);
  const int w = model.AddVariable(6.0, 0.0, kInfinity);
  const int r1 = model.AddConstraint(Sense::kLessEqual, 0.0);
  model.AddCoefficient(r1, x, 0.25);
  model.AddCoefficient(r1, y, -60.0);
  model.AddCoefficient(r1, z, -0.04);
  model.AddCoefficient(r1, w, 9.0);
  const int r2 = model.AddConstraint(Sense::kLessEqual, 0.0);
  model.AddCoefficient(r2, x, 0.5);
  model.AddCoefficient(r2, y, -90.0);
  model.AddCoefficient(r2, z, -0.02);
  model.AddCoefficient(r2, w, 3.0);
  const int r3 = model.AddConstraint(Sense::kLessEqual, 1.0);
  model.AddCoefficient(r3, z, 1.0);

  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -0.05, 1e-8);
  EXPECT_TRUE(CheckOptimality(model, solution).ok());
}

TEST(SimplexTest, DualsOfZeroSumGameAreCorrect) {
  // Matching pennies as an LP: min_u u s.t. u >= payoff of each pure column
  // response; value is 0 with uniform mixing.
  LpModel model;
  const int u = model.AddVariable(1.0, -kInfinity, kInfinity);
  const int p0 = model.AddVariable(0.0, 0.0, kInfinity);
  const int p1 = model.AddVariable(0.0, 0.0, kInfinity);
  // u >= p0 - p1 and u >= p1 - p0 (payoffs +/-1).
  const int r1 = model.AddConstraint(Sense::kGreaterEqual, 0.0);
  model.AddCoefficient(r1, u, 1.0);
  model.AddCoefficient(r1, p0, -1.0);
  model.AddCoefficient(r1, p1, 1.0);
  const int r2 = model.AddConstraint(Sense::kGreaterEqual, 0.0);
  model.AddCoefficient(r2, u, 1.0);
  model.AddCoefficient(r2, p0, 1.0);
  model.AddCoefficient(r2, p1, -1.0);
  const int conv = model.AddConstraint(Sense::kEqual, 1.0);
  model.AddCoefficient(conv, p0, 1.0);
  model.AddCoefficient(conv, p1, 1.0);

  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 0.0, 1e-9);
  EXPECT_NEAR(solution.primal[p0], 0.5, 1e-9);
  EXPECT_NEAR(solution.primal[p1], 0.5, 1e-9);
  // Duals of the two best-response rows are the opponent's mixed strategy.
  EXPECT_NEAR(solution.dual[r1], 0.5, 1e-9);
  EXPECT_NEAR(solution.dual[r2], 0.5, 1e-9);
  EXPECT_TRUE(CheckOptimality(model, solution).ok());
}

TEST(SimplexTest, ObjectiveConstantIsReported) {
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, kInfinity);
  model.AddObjectiveConstant(10.0);
  const int row = model.AddConstraint(Sense::kGreaterEqual, 2.0);
  model.AddCoefficient(row, x, 1.0);

  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 12.0, 1e-9);
}

TEST(SimplexTest, NoConstraintsUsesBounds) {
  LpModel model;
  const int x = model.AddVariable(1.0, -2.0, 5.0);
  const int y = model.AddVariable(-1.0, 0.0, 3.0);
  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.primal[x], -2.0, 1e-12);
  EXPECT_NEAR(solution.primal[y], 3.0, 1e-12);
  EXPECT_NEAR(solution.objective, -5.0, 1e-12);
}

TEST(SimplexTest, NoConstraintsKeepsCostsAsReducedCosts) {
  // Without constraints there are no duals: a variable resting at a bound
  // keeps its full cost as its reduced cost, exactly as in the constrained
  // bounded-variable convention (regression: this used to report zeros).
  LpModel model;
  const int x = model.AddVariable(1.0, -2.0, 5.0);
  const int y = model.AddVariable(-1.0, 0.0, 3.0);
  const int z = model.AddVariable(0.0, -kInfinity, kInfinity);
  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(solution.reduced_cost[x], 1.0);
  EXPECT_EQ(solution.reduced_cost[y], -1.0);
  EXPECT_EQ(solution.reduced_cost[z], 0.0);
}

TEST(SimplexTest, NoConstraintsZeroCostRespectsNegativeBounds) {
  // A zero-cost variable whose whole feasible range is below zero must be
  // clamped into it (regression: max(0, lb) ignored the upper bound and
  // reported the infeasible point 0 as optimal). One-sided bounds only:
  // a doubly-bounded variable would add an upper-bound row and leave the
  // no-constraint path under test.
  LpModel model;
  const int x = model.AddVariable(0.0, -kInfinity, -5.0);
  const int y = model.AddVariable(0.0, 2.0, kInfinity);
  const int z = model.AddVariable(0.0, -kInfinity, 3.0);
  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(solution.primal[x], -5.0);
  EXPECT_EQ(solution.primal[y], 2.0);
  EXPECT_EQ(solution.primal[z], 0.0);
  EXPECT_TRUE(CheckPrimalFeasibility(model, solution).ok());
}

TEST(SimplexTest, ExactIterationBudgetStillReportsOptimal) {
  // min x s.t. x = 3, 0 <= x <= 10: phase 1 needs exactly one pivot (the
  // artificial leaves for x) and the resulting basis is already phase-2
  // optimal. With max_iterations equal to the phase-1 iteration count the
  // solver must report the optimum, not kIterationLimit (regression: the
  // budget used to be enforced before checking for an entering column).
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, 10.0);
  const int row = model.AddConstraint(Sense::kEqual, 3.0);
  model.AddCoefficient(row, x, 1.0);

  const LpSolution reference = SolveOrDie(model);
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);
  ASSERT_GE(reference.phase1_iterations, 1);
  ASSERT_EQ(reference.phase2_iterations, 0);

  DenseTableau::Options options;
  options.max_iterations = reference.phase1_iterations;
  const auto capped = DenseTableau::Solve(model, options);
  ASSERT_TRUE(capped.ok());
  ASSERT_EQ(capped->status, SolveStatus::kOptimal);
  EXPECT_NEAR(capped->objective, 3.0, 1e-9);

  // One iteration short must still hit the limit.
  options.max_iterations = reference.phase1_iterations - 1;
  const auto starved = DenseTableau::Solve(model, options);
  ASSERT_TRUE(starved.ok());
  EXPECT_EQ(starved->status, SolveStatus::kIterationLimit);
}

TEST(SimplexTest, LeavingRowTiesBreakByLowestBasisIndex) {
  // Two identical rows give an exact ratio tie; the deterministic rule
  // must pivot out the slack with the smallest column index (the first
  // row), leaving the binding dual on row 1 and zero on row 2.
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, kInfinity);
  const int r1 = model.AddConstraint(Sense::kLessEqual, 2.0);
  model.AddCoefficient(r1, x, 1.0);
  const int r2 = model.AddConstraint(Sense::kLessEqual, 2.0);
  model.AddCoefficient(r2, x, 1.0);

  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -2.0, 1e-9);
  EXPECT_NEAR(solution.dual[r1], -1.0, 1e-9);
  EXPECT_NEAR(solution.dual[r2], 0.0, 1e-9);
  EXPECT_TRUE(CheckOptimality(model, solution).ok());
}

// Property test: random feasible LPs — solver output must pass independent
// feasibility + strong-duality validation.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, RandomFeasibleLpPassesValidation) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int n = 2 + static_cast<int>(rng.UniformInt(6));
  const int m = 1 + static_cast<int>(rng.UniformInt(6));
  LpModel model;
  // Known feasible point x0 in [0, 5]^n keeps every instance feasible.
  std::vector<double> x0(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    x0[static_cast<size_t>(j)] = rng.Uniform(0.0, 5.0);
    model.AddVariable(rng.Uniform(-2.0, 2.0), 0.0, 10.0);
  }
  for (int i = 0; i < m; ++i) {
    double activity = 0.0;
    std::vector<double> coeffs(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      coeffs[static_cast<size_t>(j)] = rng.Uniform(-3.0, 3.0);
      activity += coeffs[static_cast<size_t>(j)] * x0[static_cast<size_t>(j)];
    }
    // Slack the rhs so x0 satisfies the row.
    const int kind = static_cast<int>(rng.UniformInt(3));
    int row;
    if (kind == 0) {
      row = model.AddConstraint(Sense::kLessEqual, activity + rng.Uniform(0.0, 2.0));
    } else if (kind == 1) {
      row = model.AddConstraint(Sense::kGreaterEqual, activity - rng.Uniform(0.0, 2.0));
    } else {
      row = model.AddConstraint(Sense::kEqual, activity);
    }
    for (int j = 0; j < n; ++j) {
      model.AddCoefficient(row, j, coeffs[static_cast<size_t>(j)]);
    }
  }
  const LpSolution solution = SolveOrDie(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  const auto check = CheckOptimality(model, solution);
  EXPECT_TRUE(check.ok()) << check.ToString();
  // The optimum cannot be worse than the known feasible point.
  EXPECT_LE(solution.objective, model.Objective(x0) + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomLps, RandomLpTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace auditgame::lp
