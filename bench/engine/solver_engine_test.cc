#include "bench/engine/solver_engine.h"

#include <vector>

#include <gtest/gtest.h>

#include "data/syn_a.h"
#include "tests/test_util.h"

namespace auditgame::solver {
namespace {

EngineRequest IshmCggsRequest(const core::GameInstance& instance,
                              double budget, double eps) {
  EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &instance;
  request.budget = budget;
  request.options.ishm.step_size = eps;
  return request;
}

TEST(SolverEngineTest, ReportsThreadCount) {
  SolverEngine engine(3);
  EXPECT_EQ(engine.num_threads(), 3);
}

TEST(SolverEngineTest, BatchMatchesSerialBitForBit) {
  const core::GameInstance tiny = testutil::MakeTinyGame();
  const auto syn_a = data::MakeSynA();
  ASSERT_TRUE(syn_a.ok());

  // A heterogeneous batch: several budgets, two instances, two backends.
  std::vector<EngineRequest> requests;
  requests.push_back(IshmCggsRequest(tiny, 2.0, 0.25));
  requests.push_back(IshmCggsRequest(tiny, 3.0, 0.25));
  requests.push_back(IshmCggsRequest(*syn_a, 6.0, 0.3));
  requests.push_back(IshmCggsRequest(*syn_a, 10.0, 0.3));
  EngineRequest full;
  full.solver = "full-lp";
  full.instance = &*syn_a;
  full.budget = 8.0;
  full.thresholds = {3.0, 2.0, 2.0, 1.0};
  requests.push_back(full);

  std::vector<util::StatusOr<SolveResult>> serial;
  for (const auto& request : requests) {
    serial.push_back(Solve(request));
  }

  SolverEngine engine(4);
  const auto parallel = engine.SolveAll(requests);
  ASSERT_EQ(parallel.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << i << ": " << serial[i].status();
    ASSERT_TRUE(parallel[i].ok()) << i << ": " << parallel[i].status();
    EXPECT_EQ(parallel[i]->solver, requests[i].solver);
    EXPECT_EQ(parallel[i]->objective, serial[i]->objective) << i;
    EXPECT_EQ(parallel[i]->thresholds, serial[i]->thresholds) << i;
    EXPECT_EQ(parallel[i]->policy.orderings, serial[i]->policy.orderings) << i;
    EXPECT_EQ(parallel[i]->policy.probabilities,
              serial[i]->policy.probabilities)
        << i;
  }
}

TEST(SolverEngineTest, RepeatedBatchesAreDeterministic) {
  const core::GameInstance tiny = testutil::MakeTinyGame();
  std::vector<EngineRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(IshmCggsRequest(tiny, 1.0 + i * 0.5, 0.25));
  }
  SolverEngine engine(4);
  const auto first = engine.SolveAll(requests);
  const auto second = engine.SolveAll(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    EXPECT_EQ(first[i]->objective, second[i]->objective) << i;
    EXPECT_EQ(first[i]->thresholds, second[i]->thresholds) << i;
  }
}

TEST(SolverEngineTest, EmptyBatchReturnsEmptyResults) {
  SolverEngine engine(2);
  EXPECT_TRUE(engine.SolveAll({}).empty());
}

TEST(SolverEngineTest, AllNullInstancesFailPerSlot) {
  std::vector<EngineRequest> requests(3);
  for (auto& request : requests) request.solver = "ishm-cggs";
  SolverEngine engine(2);
  const auto results = engine.SolveAll(requests);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(SolverEngineTest, UnknownSolverMidBatchIsIsolated) {
  const core::GameInstance tiny = testutil::MakeTinyGame();
  std::vector<EngineRequest> requests;
  requests.push_back(IshmCggsRequest(tiny, 2.0, 0.25));
  EngineRequest bad = IshmCggsRequest(tiny, 2.0, 0.25);
  bad.solver = "not-a-backend";  // fails mid-batch
  requests.push_back(bad);
  requests.push_back(IshmCggsRequest(tiny, 3.0, 0.25));

  SolverEngine engine(2);
  const auto results = engine.SolveAll(requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].status();
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok()) << results[2].status();
}

TEST(SolverEngineTest, FailuresAreIsolatedPerSlot) {
  const core::GameInstance tiny = testutil::MakeTinyGame();
  std::vector<EngineRequest> requests;
  requests.push_back(IshmCggsRequest(tiny, 2.0, 0.25));  // ok
  EngineRequest unknown = IshmCggsRequest(tiny, 2.0, 0.25);
  unknown.solver = "no-such-solver";
  requests.push_back(unknown);  // unknown backend
  EngineRequest null_instance;
  null_instance.solver = "ishm-cggs";
  requests.push_back(null_instance);  // missing instance
  core::GameInstance broken = testutil::MakeTinyGame();
  broken.alert_distributions.pop_back();  // size mismatch -> invalid
  requests.push_back(IshmCggsRequest(broken, 2.0, 0.25));  // invalid game
  // The valid game after the invalid one still solves.
  requests.push_back(IshmCggsRequest(tiny, 3.0, 0.25));

  SolverEngine engine(2);
  const auto results = engine.SolveAll(requests);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].ok()) << results[0].status();
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kNotFound);
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), util::StatusCode::kInvalidArgument);
  ASSERT_FALSE(results[3].ok());
  EXPECT_EQ(results[3].status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[4].ok()) << results[4].status();
}

}  // namespace
}  // namespace auditgame::solver
