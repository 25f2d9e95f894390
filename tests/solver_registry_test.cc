#include "solver/registry.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/cggs.h"
#include "core/game_lp.h"
#include "core/ishm.h"
#include "data/syn_a.h"
#include "tests/test_util.h"

namespace auditgame::solver {
namespace {

void ExpectSamePolicy(const core::AuditPolicy& actual,
                      const core::AuditPolicy& expected) {
  EXPECT_EQ(actual.orderings, expected.orderings);
  EXPECT_EQ(actual.probabilities, expected.probabilities);
  EXPECT_EQ(actual.thresholds, expected.thresholds);
  EXPECT_EQ(actual.budget, expected.budget);
}

TEST(SolverRegistryTest, AllBuiltinNamesResolve) {
  const std::vector<std::string> names = RegisteredNames();
  for (const char* expected :
       {"brute-force", "full-lp", "cggs", "ishm-full", "ishm-cggs"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " not registered";
    auto created = Create(expected);
    ASSERT_TRUE(created.ok()) << created.status();
    EXPECT_EQ((*created)->Name(), expected);
  }
}

TEST(SolverRegistryTest, UnknownNameIsNotFound) {
  const auto result = Create("no-such-solver");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
  // The error lists the registered names to make typos self-diagnosing.
  EXPECT_NE(result.status().message().find("ishm-cggs"), std::string::npos);
}

TEST(SolverRegistryTest, DuplicateRegistrationFails) {
  auto factory = [](const SolverOptions&) -> std::unique_ptr<Solver> {
    return nullptr;
  };
  EXPECT_FALSE(Register("ishm-cggs", factory).ok());
  EXPECT_FALSE(Register("", factory).ok());
}

TEST(SolverRegistryTest, SearchingBackendsRequireInstance) {
  const core::GameInstance instance = testutil::MakeTinyGame();
  const auto compiled = core::Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = core::DetectionModel::Create(instance, 2.0);
  ASSERT_TRUE(detection.ok());
  for (const char* name : {"brute-force", "ishm-full", "ishm-cggs"}) {
    auto created = Create(name);
    ASSERT_TRUE(created.ok());
    const auto result =
        (*created)->Solve(*compiled, *detection, SolveRequest());
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(SolverRegistryTest, FixedThresholdBackendsRequireThresholds) {
  const core::GameInstance instance = testutil::MakeTinyGame();
  const auto compiled = core::Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = core::DetectionModel::Create(instance, 2.0);
  ASSERT_TRUE(detection.ok());
  for (const char* name : {"full-lp", "cggs"}) {
    auto created = Create(name);
    ASSERT_TRUE(created.ok());
    SolveRequest request;
    request.thresholds = {1.0};  // wrong arity
    const auto result = (*created)->Solve(*compiled, *detection, request);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
}

// ---- Adapter-vs-direct equivalence on Syn A ------------------------------
// The adapters forward to the free functions with identical options and
// seeds, so every number must match bit-for-bit (EXPECT_EQ on doubles, not
// EXPECT_NEAR).

class AdapterEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto instance = data::MakeSynA();
    ASSERT_TRUE(instance.ok());
    instance_ = *std::move(instance);
    auto compiled = core::Compile(instance_);
    ASSERT_TRUE(compiled.ok());
    compiled_ = *std::move(compiled);
  }

  core::DetectionModel MakeDetection(double budget) {
    auto detection = core::DetectionModel::Create(instance_, budget);
    EXPECT_TRUE(detection.ok());
    return *std::move(detection);
  }

  core::GameInstance instance_;
  core::CompiledGame compiled_;
};

TEST_F(AdapterEquivalenceTest, BruteForceMatchesDirectCall) {
  const double budget = 6.0;
  const auto direct = core::SolveBruteForce(instance_, budget);
  ASSERT_TRUE(direct.ok());

  auto adapter = Create("brute-force");
  ASSERT_TRUE(adapter.ok());
  core::DetectionModel detection = MakeDetection(budget);
  SolveRequest request;
  request.instance = &instance_;
  const auto result = (*adapter)->Solve(compiled_, detection, request);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->objective, direct->objective);
  EXPECT_EQ(result->stats.vectors_evaluated, direct->vectors_evaluated);
  EXPECT_EQ(result->stats.search_space, direct->search_space);
  ExpectSamePolicy(result->policy, direct->policy);
}

TEST_F(AdapterEquivalenceTest, FullLpMatchesDirectCall) {
  const double budget = 8.0;
  const std::vector<double> thresholds = {3.0, 2.0, 2.0, 1.0};
  core::DetectionModel direct_detection = MakeDetection(budget);
  const auto direct =
      core::SolveFullGameLp(compiled_, direct_detection, thresholds);
  ASSERT_TRUE(direct.ok());

  auto adapter = Create("full-lp");
  ASSERT_TRUE(adapter.ok());
  core::DetectionModel detection = MakeDetection(budget);
  SolveRequest request;
  request.thresholds = thresholds;
  const auto result = (*adapter)->Solve(compiled_, detection, request);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->objective, direct->objective);
  ExpectSamePolicy(result->policy, direct->policy);
}

TEST_F(AdapterEquivalenceTest, CggsMatchesDirectCall) {
  const double budget = 8.0;
  const std::vector<double> thresholds = {3.0, 2.0, 2.0, 1.0};
  core::CggsOptions cggs_options;  // defaults, including seed = 7
  core::DetectionModel direct_detection = MakeDetection(budget);
  const auto direct =
      core::SolveCggs(compiled_, direct_detection, thresholds, cggs_options);
  ASSERT_TRUE(direct.ok());

  SolverOptions options;
  options.cggs = cggs_options;
  auto adapter = Create("cggs", options);
  ASSERT_TRUE(adapter.ok());
  core::DetectionModel detection = MakeDetection(budget);
  SolveRequest request;
  request.thresholds = thresholds;
  const auto result = (*adapter)->Solve(compiled_, detection, request);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->objective, direct->objective);
  EXPECT_EQ(result->stats.lp_solves, direct->lp_solves);
  EXPECT_EQ(result->stats.columns_generated, direct->columns_generated);
  ExpectSamePolicy(result->policy, direct->policy);
}

TEST_F(AdapterEquivalenceTest, IshmFullMatchesDirectCall) {
  const double budget = 6.0;
  core::IshmOptions ishm_options;
  ishm_options.step_size = 0.25;
  core::DetectionModel direct_detection = MakeDetection(budget);
  const auto direct = core::SolveIshm(
      instance_, core::MakeFullLpEvaluator(compiled_, direct_detection),
      ishm_options);
  ASSERT_TRUE(direct.ok());

  SolverOptions options;
  options.ishm = ishm_options;
  auto adapter = Create("ishm-full", options);
  ASSERT_TRUE(adapter.ok());
  core::DetectionModel detection = MakeDetection(budget);
  SolveRequest request;
  request.instance = &instance_;
  const auto result = (*adapter)->Solve(compiled_, detection, request);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->objective, direct->objective);
  EXPECT_EQ(result->thresholds, direct->effective_thresholds);
  EXPECT_EQ(result->stats.evaluations, direct->stats.evaluations);
  EXPECT_EQ(result->stats.distinct_evaluations,
            direct->stats.distinct_evaluations);
  EXPECT_EQ(result->stats.improvements, direct->stats.improvements);
  ExpectSamePolicy(result->policy, direct->policy);
}

TEST_F(AdapterEquivalenceTest, IshmCggsMatchesDirectCall) {
  const double budget = 10.0;
  core::IshmOptions ishm_options;
  ishm_options.step_size = 0.25;
  const core::CggsOptions cggs_options;  // default seed = 7
  core::DetectionModel direct_detection = MakeDetection(budget);
  const auto direct = core::SolveIshm(
      instance_,
      core::MakeCggsEvaluator(compiled_, direct_detection, cggs_options),
      ishm_options);
  ASSERT_TRUE(direct.ok());

  SolverOptions options;
  options.ishm = ishm_options;
  options.cggs = cggs_options;
  auto adapter = Create("ishm-cggs", options);
  ASSERT_TRUE(adapter.ok());
  core::DetectionModel detection = MakeDetection(budget);
  SolveRequest request;
  request.instance = &instance_;
  const auto result = (*adapter)->Solve(compiled_, detection, request);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->objective, direct->objective);
  EXPECT_EQ(result->thresholds, direct->effective_thresholds);
  EXPECT_EQ(result->stats.evaluations, direct->stats.evaluations);
  ExpectSamePolicy(result->policy, direct->policy);
  // The sweep's CGGS work reaches the served stats, and its master really
  // is reused: some solves resume from the previous basis.
  EXPECT_EQ(result->stats.lp_solves, direct->stats.cggs.lp_solves);
  EXPECT_EQ(result->stats.warm_lp_solves, direct->stats.cggs.warm_lp_solves);
  EXPECT_EQ(result->stats.columns_generated,
            direct->stats.cggs.columns_generated);
  EXPECT_GT(result->stats.lp_solves, 0);
  EXPECT_GT(result->stats.warm_lp_solves, 0);
  // A fresh master per probe would cold-start every probe's first solve.
  EXPECT_LT(result->stats.lp_solves - result->stats.warm_lp_solves,
            result->stats.distinct_evaluations);
}

}  // namespace
}  // namespace auditgame::solver
