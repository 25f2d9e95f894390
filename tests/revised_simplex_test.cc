#include "lp/revised_simplex.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/detection.h"
#include "core/game.h"
#include "core/master_lp.h"
#include "data/syn_a.h"
#include "lp/model.h"
#include "lp/validate.h"
#include "tests/lp_oracle/dense_tableau.h"
#include "util/combinatorics.h"
#include "util/random.h"

namespace auditgame::lp {
namespace {

RevisedSolution SolveRevisedOrDie(const LpModel& model,
                                  const Basis* warm = nullptr) {
  auto solution = RevisedSimplex::Solve(model, RevisedSimplex::Options(), warm);
  EXPECT_TRUE(solution.ok()) << solution.status();
  return *solution;
}

LpSolution SolveDenseOrDie(const LpModel& model) {
  auto solution = DenseTableau::Solve(model);
  EXPECT_TRUE(solution.ok()) << solution.status();
  return *solution;
}

// Complementary slackness in the original model space: every constraint
// with a nonzero dual is tight, and every basic-looking variable (strictly
// between its bounds) has zero reduced cost.
void CheckComplementarySlackness(const LpModel& model,
                                 const LpSolution& solution) {
  for (int i = 0; i < model.num_constraints(); ++i) {
    const double slack = model.RowActivity(i, solution.primal) - model.rhs(i);
    EXPECT_NEAR(solution.dual[i] * slack, 0.0, 1e-5)
        << "row " << i << " dual " << solution.dual[i] << " slack " << slack;
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    const double x = solution.primal[j];
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    if (x > lb + 1e-6 && x < ub - 1e-6) {
      EXPECT_NEAR(solution.reduced_cost[j], 0.0, 1e-5) << "variable " << j;
    }
  }
}

TEST(RevisedSimplexTest, SimpleTwoVariableMin) {
  // min -x - 2y s.t. x + y <= 4, x in [0,3], y in [0,2]: the doubly
  // bounded variables cost the revised solver no extra rows.
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, 3.0);
  const int y = model.AddVariable(-2.0, 0.0, 2.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 4.0);
  model.AddCoefficient(row, x, 1.0);
  model.AddCoefficient(row, y, 1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.objective, -6.0, 1e-9);
  EXPECT_NEAR(result.solution.primal[x], 2.0, 1e-9);
  EXPECT_NEAR(result.solution.primal[y], 2.0, 1e-9);
  EXPECT_TRUE(CheckOptimality(model, result.solution).ok());
}

TEST(RevisedSimplexTest, RefactorIntervalBelowOneIsRefused) {
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, 3.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 2.0);
  model.AddCoefficient(row, x, 1.0);
  RevisedSimplex::Options options;
  options.refactor_interval = 0;
  const auto refused = RevisedSimplex::Solve(model, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kInvalidArgument);
  options.refactor_interval = 1;
  const auto solved = RevisedSimplex::Solve(model, options);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_NEAR(solved->solution.objective, -2.0, 1e-9);
}

TEST(RevisedSimplexTest, EqualityAndFreeVariable) {
  // min u s.t. u >= 3 - x, u >= x - 1, 0 <= x <= 10, u free.
  LpModel model;
  const int u = model.AddVariable(1.0, -kInfinity, kInfinity);
  const int x = model.AddVariable(0.0, 0.0, 10.0);
  const int r1 = model.AddConstraint(Sense::kGreaterEqual, 3.0);
  model.AddCoefficient(r1, u, 1.0);
  model.AddCoefficient(r1, x, 1.0);
  const int r2 = model.AddConstraint(Sense::kGreaterEqual, -1.0);
  model.AddCoefficient(r2, u, 1.0);
  model.AddCoefficient(r2, x, -1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.objective, 1.0, 1e-8);
  EXPECT_NEAR(result.solution.primal[u], 1.0, 1e-8);
  EXPECT_NEAR(result.solution.primal[x], 2.0, 1e-8);
  EXPECT_TRUE(CheckOptimality(model, result.solution).ok());
}

TEST(RevisedSimplexTest, DetectsInfeasible) {
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, kInfinity);
  const int r1 = model.AddConstraint(Sense::kGreaterEqual, 2.0);
  model.AddCoefficient(r1, x, 1.0);
  const int r2 = model.AddConstraint(Sense::kLessEqual, 1.0);
  model.AddCoefficient(r2, x, 1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  EXPECT_EQ(result.solution.status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplexTest, DetectsUnbounded) {
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, kInfinity);
  const int row = model.AddConstraint(Sense::kGreaterEqual, 1.0);
  model.AddCoefficient(row, x, 1.0);

  const RevisedSolution result = SolveRevisedOrDie(model);
  EXPECT_EQ(result.solution.status, SolveStatus::kUnbounded);
}

TEST(RevisedSimplexTest, NoConstraintsUsesBoundsAndKeepsCosts) {
  LpModel model;
  const int x = model.AddVariable(1.0, -2.0, 5.0);
  const int y = model.AddVariable(-1.0, 0.0, 3.0);
  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.primal[x], -2.0, 1e-12);
  EXPECT_NEAR(result.solution.primal[y], 3.0, 1e-12);
  EXPECT_NEAR(result.solution.objective, -5.0, 1e-12);
  EXPECT_EQ(result.solution.reduced_cost[x], 1.0);
  EXPECT_EQ(result.solution.reduced_cost[y], -1.0);
}

TEST(RevisedSimplexTest, NoConstraintsZeroCostRespectsNegativeBounds) {
  LpModel model;
  const int x = model.AddVariable(0.0, -kInfinity, -5.0);
  const int y = model.AddVariable(0.0, -3.0, -1.0);
  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(result.solution.primal[x], -5.0);
  EXPECT_EQ(result.solution.primal[y], -1.0);
  EXPECT_EQ(result.basis.structural[x], VarStatus::kAtUpper);
  EXPECT_EQ(result.basis.structural[y], VarStatus::kAtUpper);
}

TEST(RevisedSimplexTest, DegenerateProblemTerminates) {
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

  const RevisedSolution result = SolveRevisedOrDie(model);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(result.solution.objective, -0.05, 1e-8);
  EXPECT_TRUE(CheckOptimality(model, result.solution).ok());
}

// ---- Warm start ----------------------------------------------------------

TEST(RevisedSimplexTest, WarmStartAfterAppendingColumnSkipsPhase1) {
  // A convexity-constrained LP in the column-generation shape.
  LpModel model;
  const int p0 = model.AddVariable(2.0, 0.0, kInfinity);
  const int p1 = model.AddVariable(1.0, 0.0, kInfinity);
  const int conv = model.AddConstraint(Sense::kEqual, 1.0);
  model.AddCoefficient(conv, p0, 1.0);
  model.AddCoefficient(conv, p1, 1.0);

  const RevisedSolution first = SolveRevisedOrDie(model);
  ASSERT_EQ(first.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.solution.objective, 1.0, 1e-9);

  // Append a cheaper column and re-solve from the previous basis: the old
  // basis stays primal-feasible, so phase 1 does no work.
  const int p2 = model.AddVariable(0.5, 0.0, kInfinity);
  model.AddCoefficient(conv, p2, 1.0);
  const RevisedSolution warm = SolveRevisedOrDie(model, &first.basis);
  ASSERT_EQ(warm.solution.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.solution.phase1_iterations, 0);
  EXPECT_NEAR(warm.solution.objective, 0.5, 1e-9);
  EXPECT_NEAR(warm.solution.primal[p2], 1.0, 1e-9);
  EXPECT_NEAR(warm.solution.primal[p0] + warm.solution.primal[p1], 0.0, 1e-9);
}

TEST(RevisedSimplexTest, IncompatibleWarmStartFallsBackToCold) {
  LpModel model;
  const int x = model.AddVariable(-1.0, 0.0, 3.0);
  const int row = model.AddConstraint(Sense::kLessEqual, 2.0);
  model.AddCoefficient(row, x, 1.0);

  Basis stale;
  stale.structural = {VarStatus::kBasic, VarStatus::kBasic};  // too many
  stale.logical = {VarStatus::kBasic, VarStatus::kBasic};     // wrong m
  const RevisedSolution result = SolveRevisedOrDie(model, &stale);
  ASSERT_EQ(result.solution.status, SolveStatus::kOptimal);
  EXPECT_FALSE(result.warm_started);
  EXPECT_NEAR(result.solution.objective, -2.0, 1e-9);
}

// Overwriting coefficients in place can leave the recorded basic columns
// nearly dependent. A pivot of 1e-8 against entries near 1 clears an
// absolute 1e-9 test, but a factorization that ill-conditioned corrupts
// every later solve, so the warm basis must be refused for a cold one.
TEST(RevisedSimplexTest, NearlySingularWarmBasisFallsBackToCold) {
  // min x + y  s.t.  x + y >= 2,  x + 2y >= 3: optimal basis {x, y}.
  LpModel model;
  const int x = model.AddVariable(1.0, 0.0, kInfinity);
  const int y = model.AddVariable(1.0, 0.0, kInfinity);
  const int first = model.AddConstraint(Sense::kGreaterEqual, 2.0);
  model.AppendCoefficient(first, x, 1.0);
  model.AppendCoefficient(first, y, 1.0);
  const int second = model.AddConstraint(Sense::kGreaterEqual, 3.0);
  model.AppendCoefficient(second, x, 1.0);
  const int y_entry = model.AppendCoefficient(second, y, 2.0);
  const RevisedSolution optimal = SolveRevisedOrDie(model);
  ASSERT_EQ(optimal.solution.status, SolveStatus::kOptimal);
  ASSERT_EQ(optimal.basis.structural[x], VarStatus::kBasic);
  ASSERT_EQ(optimal.basis.structural[y], VarStatus::kBasic);

  // y's column becomes (1, 1 + 1e-8): the basis's U ends in a 1e-8 pivot.
  model.SetCoefficientAt(second, y_entry, 1.0 + 1e-8);
  const RevisedSolution warm = SolveRevisedOrDie(model, &optimal.basis);
  ASSERT_EQ(warm.solution.status, SolveStatus::kOptimal);
  EXPECT_FALSE(warm.basis_accepted);
  EXPECT_FALSE(warm.warm_started);
  const RevisedSolution cold = SolveRevisedOrDie(model);
  EXPECT_EQ(warm.solution.objective, cold.solution.objective);
  EXPECT_TRUE(CheckOptimality(model, warm.solution).ok());
}

TEST(RevisedSimplexTest, WarmStartMatchesColdOnRepeatedSolve) {
  util::Rng rng(99);
  LpModel model;
  const int n = 6;
  for (int j = 0; j < n; ++j) model.AddVariable(rng.Uniform(-2.0, 2.0), 0.0, 4.0);
  for (int i = 0; i < 4; ++i) {
    const int row = model.AddConstraint(Sense::kLessEqual, 6.0);
    for (int j = 0; j < n; ++j) {
      model.AddCoefficient(row, j, rng.Uniform(0.0, 2.0));
    }
  }
  const RevisedSolution cold = SolveRevisedOrDie(model);
  ASSERT_EQ(cold.solution.status, SolveStatus::kOptimal);
  const RevisedSolution warm = SolveRevisedOrDie(model, &cold.basis);
  ASSERT_EQ(warm.solution.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  // Re-solving from the optimal basis is pure verification: zero pivots.
  EXPECT_EQ(warm.solution.phase1_iterations, 0);
  EXPECT_EQ(warm.solution.phase2_iterations, 0);
  EXPECT_NEAR(warm.solution.objective, cold.solution.objective, 1e-9);
}

// ---- Pivot-free phases ---------------------------------------------------

// min 3a + 2b + 4c + 5d  s.t.  a + b + 2d >= r0,  b + c + d >= r1,
// a + c + d >= r2,  all >= 0. A phase that makes no pivot leaves x_B as the
// solve's first recompute wrote it, and the duals come from phase 2's last
// pricing pass; each case below must still pass the optimality checks.
LpModel CoveringLp(double r0, double r1, double r2) {
  LpModel model;
  for (const double cost : {3.0, 2.0, 4.0, 5.0}) {
    model.AddVariable(cost, 0.0, kInfinity);
  }
  const double a[3][4] = {{1, 1, 0, 2}, {0, 1, 1, 1}, {1, 0, 1, 1}};
  const double rhs[3] = {r0, r1, r2};
  for (int i = 0; i < 3; ++i) {
    const int row = model.AddConstraint(Sense::kGreaterEqual, rhs[i]);
    for (int j = 0; j < 4; ++j) {
      if (a[i][j] != 0.0) model.AddCoefficient(row, j, a[i][j]);
    }
  }
  return model;
}

void ExpectOptimalLike(const LpModel& model, const RevisedSolution& got,
                       const RevisedSolution& cold) {
  ASSERT_EQ(got.solution.status, SolveStatus::kOptimal);
  EXPECT_TRUE(CheckPrimalFeasibility(model, got.solution).ok())
      << CheckPrimalFeasibility(model, got.solution);
  EXPECT_TRUE(CheckOptimality(model, got.solution).ok())
      << CheckOptimality(model, got.solution);
  EXPECT_NEAR(got.solution.objective, cold.solution.objective, 1e-9);
}

TEST(RevisedSimplexTest, PivotFreePhasesKeepPrimalsAndDualsCurrent) {
  LpModel model = CoveringLp(2.0, 3.0, 1.0);
  const RevisedSolution optimal = SolveRevisedOrDie(model);
  ASSERT_EQ(optimal.solution.status, SolveStatus::kOptimal);

  {
    SCOPED_TRACE("neither phase pivots");
    // A column too expensive to enter: the optimal basis is re-verified.
    LpModel grown = model;
    const int dear = grown.AddVariable(50.0, 0.0, kInfinity);
    for (int i = 0; i < 3; ++i) grown.AddCoefficient(i, dear, 1.0);
    const RevisedSolution warm = SolveRevisedOrDie(grown, &optimal.basis);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_EQ(warm.solution.phase1_iterations, 0);
    EXPECT_EQ(warm.solution.phase2_iterations, 0);
    ExpectOptimalLike(grown, warm, SolveRevisedOrDie(grown));
  }
  {
    SCOPED_TRACE("phase 1 does not pivot, phase 2 does");
    // A column cheap enough to enter: the basis stays feasible.
    LpModel grown = model;
    const int cheap = grown.AddVariable(1.0, 0.0, kInfinity);
    for (int i = 0; i < 3; ++i) grown.AddCoefficient(i, cheap, 1.0);
    const RevisedSolution warm = SolveRevisedOrDie(grown, &optimal.basis);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_EQ(warm.solution.phase1_iterations, 0);
    EXPECT_GT(warm.solution.phase2_iterations, 0);
    ExpectOptimalLike(grown, warm, SolveRevisedOrDie(grown));
  }
  {
    SCOPED_TRACE("phase 1 pivots, phase 2 does not");
    // The optimum of a slack problem (every logical basic) is infeasible
    // once the rows tighten; phase 1's first feasible basis is optimal.
    const RevisedSolution slack = SolveRevisedOrDie(CoveringLp(-1.0, -1.0, -1.0));
    ASSERT_EQ(slack.solution.status, SolveStatus::kOptimal);
    const LpModel tight = CoveringLp(0.0, 1.0, 0.0);
    const RevisedSolution warm = SolveRevisedOrDie(tight, &slack.basis);
    EXPECT_TRUE(warm.basis_accepted);
    EXPECT_GT(warm.solution.phase1_iterations, 0);
    EXPECT_EQ(warm.solution.phase2_iterations, 0);
    ExpectOptimalLike(tight, warm, SolveRevisedOrDie(tight));
  }
}

// ---- Agreement with the dense-tableau oracle -----------------------------

// Random bounded LP mixing doubly-bounded, one-sided, and free variables
// and all three row senses, built around a known interior point so most
// instances are feasible (and both solvers must agree when they are not).
LpModel RandomBoundedLp(uint64_t seed, int n, int m) {
  util::Rng rng(seed);
  LpModel model;
  std::vector<double> x0(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double c = rng.Uniform(-2.0, 2.0);
    const int kind = static_cast<int>(rng.UniformInt(4));
    if (kind == 0) {
      model.AddVariable(c, 0.0, rng.Uniform(1.0, 8.0));  // doubly bounded
    } else if (kind == 1) {
      model.AddVariable(c, rng.Uniform(-4.0, 0.0), kInfinity);
    } else if (kind == 2) {
      model.AddVariable(c, -2.0, 6.0);
    } else {
      model.AddVariable(c, -kInfinity, kInfinity);
    }
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    const double low = lb == -kInfinity ? -2.0 : lb;
    const double high = ub == kInfinity ? low + 4.0 : ub;
    x0[static_cast<size_t>(j)] = rng.Uniform(low, high);
  }
  for (int i = 0; i < m; ++i) {
    double activity = 0.0;
    std::vector<double> coeffs(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      coeffs[static_cast<size_t>(j)] = rng.Uniform(-3.0, 3.0);
      activity += coeffs[static_cast<size_t>(j)] * x0[static_cast<size_t>(j)];
    }
    const int kind = static_cast<int>(rng.UniformInt(3));
    int row;
    if (kind == 0) {
      row = model.AddConstraint(Sense::kLessEqual,
                                activity + rng.Uniform(0.0, 2.0));
    } else if (kind == 1) {
      row = model.AddConstraint(Sense::kGreaterEqual,
                                activity - rng.Uniform(0.0, 2.0));
    } else {
      row = model.AddConstraint(Sense::kEqual, activity);
    }
    for (int j = 0; j < n; ++j) {
      model.AddCoefficient(row, j, coeffs[static_cast<size_t>(j)]);
    }
  }
  return model;
}

class BackendAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendAgreementTest, DenseAndRevisedAgreeOnRandomBoundedLps) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 6121 + 5);
  const int n = 2 + static_cast<int>(rng.UniformInt(8));
  const int m = 1 + static_cast<int>(rng.UniformInt(8));
  const LpModel model = RandomBoundedLp(rng(), n, m);

  const LpSolution dense = SolveDenseOrDie(model);
  const RevisedSolution revised = SolveRevisedOrDie(model);
  ASSERT_EQ(revised.solution.status, dense.status)
      << "dense=" << SolveStatusToString(dense.status)
      << " revised=" << SolveStatusToString(revised.solution.status);
  if (dense.status != SolveStatus::kOptimal) return;

  EXPECT_NEAR(revised.solution.objective, dense.objective,
              1e-6 * (1.0 + std::fabs(dense.objective)));
  // Primal points may differ at degenerate optima, but both must be
  // feasible, optimal, and complementary.
  for (const LpSolution* solution : {&dense, &revised.solution}) {
    const auto check = CheckOptimality(model, *solution);
    EXPECT_TRUE(check.ok()) << check.ToString();
    CheckComplementarySlackness(model, *solution);
  }
  // Objective of the revised primal point under the model must equal the
  // reported objective (guards against basis/value drift).
  EXPECT_NEAR(model.Objective(revised.solution.primal),
              revised.solution.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomLps, BackendAgreementTest,
                         ::testing::Range(0, 100));

// Random LP with rows constructed around a known feasible point, so every
// instance is feasible and bounded — the m = n instances the LP
// microbenchmark times.
LpModel RandomFeasibleLp(int n, int m, uint64_t seed) {
  util::Rng rng(seed);
  LpModel model;
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
    const int row = model.AddConstraint(Sense::kLessEqual,
                                        activity + rng.Uniform(0.0, 2.0));
    for (int j = 0; j < n; ++j) {
      model.AddCoefficient(row, j, coeffs[static_cast<size_t>(j)]);
    }
  }
  return model;
}

TEST(BackendAgreementTest, RandomFeasibleLpsAtBenchSizes) {
  for (const int n : {20, 50, 100}) {
    const LpModel model = RandomFeasibleLp(n, n, 1234);
    const LpSolution dense = SolveDenseOrDie(model);
    const RevisedSolution revised = SolveRevisedOrDie(model);
    ASSERT_EQ(dense.status, SolveStatus::kOptimal) << "n=" << n;
    ASSERT_EQ(revised.solution.status, SolveStatus::kOptimal) << "n=" << n;
    EXPECT_NEAR(revised.solution.objective, dense.objective,
                1e-6 * (1.0 + std::fabs(dense.objective)))
        << "n=" << n;
    const auto check = CheckOptimality(model, revised.solution);
    EXPECT_TRUE(check.ok()) << "n=" << n << ": " << check.ToString();
  }
}

// The full Syn A game LP (all 4! = 24 orderings) as the master builds it,
// at three threshold vectors: the oracle, a cold revised solve of the same
// model, and the master's own solve must reach one objective.
TEST(BackendAgreementTest, FullSynAGameLp) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = core::Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = core::DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());
  const std::vector<std::vector<double>> threshold_vectors = {
      {3.0, 3.0, 3.0, 3.0}, {3.0, 3.0, 2.0, 2.0}, {1.0, 2.0, 3.0, 4.0}};
  for (const std::vector<double>& thresholds : threshold_vectors) {
    ASSERT_TRUE(detection->SetThresholds(thresholds).ok());
    core::RestrictedMasterLp master(*compiled, *detection);
    for (const std::vector<int>& ordering : util::AllPermutations(4)) {
      ASSERT_TRUE(master.AddOrdering(ordering).ok());
    }
    const LpSolution dense = SolveDenseOrDie(master.model());
    const RevisedSolution revised = SolveRevisedOrDie(master.model());
    core::RestrictedLpSolution served;
    const util::Status status = master.SolveInto(served);
    ASSERT_TRUE(status.ok()) << status;
    ASSERT_EQ(dense.status, SolveStatus::kOptimal);
    ASSERT_EQ(revised.solution.status, SolveStatus::kOptimal);
    const double tolerance = 1e-6 * (1.0 + std::fabs(dense.objective));
    EXPECT_NEAR(revised.solution.objective, dense.objective, tolerance)
        << "thresholds " << thresholds[0] << "," << thresholds[1] << ","
        << thresholds[2] << "," << thresholds[3];
    EXPECT_NEAR(served.objective, dense.objective, tolerance);
    for (const LpSolution* solution : {&dense, &revised.solution}) {
      const auto check = CheckOptimality(master.model(), *solution);
      EXPECT_TRUE(check.ok()) << check.ToString();
    }
  }
}

// ---- Per-thread working memory -------------------------------------------

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  if (!values.empty()) {
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  }
  return bits;
}

void ExpectBitIdentical(const RevisedSolution& got,
                        const RevisedSolution& want) {
  EXPECT_EQ(got.solution.status, want.solution.status);
  EXPECT_EQ(Bits({got.solution.objective}), Bits({want.solution.objective}));
  EXPECT_EQ(Bits(got.solution.primal), Bits(want.solution.primal));
  EXPECT_EQ(Bits(got.solution.dual), Bits(want.solution.dual));
  EXPECT_EQ(Bits(got.solution.reduced_cost),
            Bits(want.solution.reduced_cost));
  EXPECT_EQ(got.solution.phase1_iterations, want.solution.phase1_iterations);
  EXPECT_EQ(got.solution.phase2_iterations, want.solution.phase2_iterations);
  EXPECT_EQ(got.basis.structural, want.basis.structural);
  EXPECT_EQ(got.basis.logical, want.basis.logical);
  EXPECT_EQ(got.warm_started, want.warm_started);
  EXPECT_EQ(got.basis_accepted, want.basis_accepted);
}

// A new thread starts with an empty simplex workspace.
RevisedSolution SolveOnFreshThread(const LpModel& model,
                                   const RevisedSimplex::Options& options,
                                   const Basis* warm) {
  RevisedSolution result;
  util::Status status;
  std::thread([&] {
    status = RevisedSimplex::SolveInto(model, options, warm, result);
  }).join();
  EXPECT_TRUE(status.ok()) << status;
  return result;
}

// One thread solves LPs whose rows and columns grow and then shrink, so
// most solves run in buffers a different-sized LP left behind. Each solve,
// cold and warm, must match bit for bit the same solve on a new thread.
TEST(RevisedSimplexTest, ReusedThreadWorkspaceMatchesFreshThread) {
  const std::vector<std::pair<int, int>> shapes = {
      {3, 2},   {6, 5},   {12, 9}, {24, 18}, {40, 30},
      {20, 26}, {10, 14}, {5, 3},  {2, 1}};
  RevisedSolution reused;  // one output object across the sequence
  int warm_accepted = 0;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const auto [n, m] = shapes[s];
    SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
    RevisedSimplex::Options options;
    // A short eta file makes the larger solves refactorize mid-phase.
    options.refactor_interval = s % 2 == 0 ? 64 : 3;
    LpModel model = RandomBoundedLp(1000 + s, n, m);

    const RevisedSolution cold = SolveOnFreshThread(model, options, nullptr);
    ASSERT_TRUE(
        RevisedSimplex::SolveInto(model, options, nullptr, reused).ok());
    ExpectBitIdentical(reused, cold);

    // Warm: append a column and resume from the cold optimum's basis.
    const Basis basis = cold.basis;
    const int var = model.AddVariable(-1.0, 0.0, 3.0);
    for (int i = 0; i < m; ++i) {
      model.AddCoefficient(i, var, i % 2 == 0 ? 1.0 : -0.5);
    }
    const RevisedSolution warm = SolveOnFreshThread(model, options, &basis);
    ASSERT_TRUE(
        RevisedSimplex::SolveInto(model, options, &basis, reused).ok());
    ExpectBitIdentical(reused, warm);
    warm_accepted += warm.basis_accepted ? 1 : 0;
  }
  EXPECT_GT(warm_accepted, 0);
}

}  // namespace
}  // namespace auditgame::lp
