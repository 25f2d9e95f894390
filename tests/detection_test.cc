#include "core/detection.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "audit/executor.h"
#include "prob/count_distribution.h"
#include "scenario/generator.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace auditgame::core {
namespace {

using testutil::MakeMediumGame;
using testutil::MakeTinyGame;

TEST(DetectionModelTest, ConstantCountsAreExact) {
  // Z = [2, 2], B = 3, thresholds [2, 2]: first type audits 2 of 2
  // (Pal = 1), consumes 2; second type has budget 1 -> audits 1 of 2
  // (Pal = 0.5).
  const GameInstance instance = MakeTinyGame();
  auto model = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SetThresholds({2.0, 2.0}).ok());
  const auto pal = model->DetectionProbabilities({0, 1});
  ASSERT_TRUE(pal.ok());
  EXPECT_NEAR((*pal)[0], 1.0, 1e-12);
  EXPECT_NEAR((*pal)[1], 0.5, 1e-12);
}

TEST(DetectionModelTest, OrderingMatters) {
  const GameInstance instance = MakeTinyGame();
  auto model = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SetThresholds({2.0, 2.0}).ok());
  const auto pal = model->DetectionProbabilities({1, 0});
  ASSERT_TRUE(pal.ok());
  EXPECT_NEAR((*pal)[1], 1.0, 1e-12);
  EXPECT_NEAR((*pal)[0], 0.5, 1e-12);
}

TEST(DetectionModelTest, ZeroThresholdMeansNoDetection) {
  const GameInstance instance = MakeTinyGame();
  auto model = DetectionModel::Create(instance, 10.0);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SetThresholds({0.0, 5.0}).ok());
  const auto pal = model->DetectionProbabilities({0, 1});
  ASSERT_TRUE(pal.ok());
  EXPECT_NEAR((*pal)[0], 0.0, 1e-12);
  EXPECT_NEAR((*pal)[1], 1.0, 1e-12);
}

TEST(DetectionModelTest, ZeroBudgetMeansNoDetection) {
  const GameInstance instance = MakeTinyGame();
  auto model = DetectionModel::Create(instance, 0.0);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SetThresholds({5.0, 5.0}).ok());
  const auto pal = model->DetectionProbabilities({0, 1});
  ASSERT_TRUE(pal.ok());
  EXPECT_NEAR((*pal)[0], 0.0, 1e-12);
  EXPECT_NEAR((*pal)[1], 0.0, 1e-12);
}

TEST(DetectionModelTest, RejectsBadInput) {
  const GameInstance instance = MakeTinyGame();
  EXPECT_FALSE(DetectionModel::Create(instance, -1.0).ok());
  auto model = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->SetThresholds({1.0}).ok());
  EXPECT_FALSE(model->SetThresholds({-1.0, 1.0}).ok());
  ASSERT_TRUE(model->SetThresholds({1.0, 1.0}).ok());
  EXPECT_FALSE(model->DetectionProbabilities({0}).ok());
  EXPECT_FALSE(model->DetectionProbabilities({0, 0}).ok());
  EXPECT_FALSE(model->DetectionProbabilities({0, 2}).ok());
}

// The exact (convolution) estimator must agree with direct enumeration of
// the joint support via the audit executor.
TEST(DetectionModelTest, ExactMatchesJointEnumeration) {
  GameInstance instance = MakeTinyGame();
  instance.alert_distributions = {
      *prob::CountDistribution::DiscretizedGaussian(3.0, 1.0, 1, 5),
      *prob::CountDistribution::DiscretizedGaussian(2.0, 1.0, 1, 4)};
  const double budget = 4.0;
  const std::vector<double> thresholds = {3.0, 2.0};
  const std::vector<int> ordering = {0, 1};

  auto model = DetectionModel::Create(instance, budget);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SetThresholds(thresholds).ok());
  const auto pal = model->DetectionProbabilities(ordering);
  ASSERT_TRUE(pal.ok());

  // Enumerate the joint support, computing E[n_t / Z_t] directly from the
  // audit executor (independent implementation of the recourse semantics).
  audit::AuditConfiguration config;
  config.ordering = ordering;
  config.thresholds = thresholds;
  config.audit_costs = instance.audit_costs;
  config.budget = budget;
  std::vector<double> expected(2, 0.0);
  for (int z0 = 1; z0 <= 5; ++z0) {
    for (int z1 = 1; z1 <= 4; ++z1) {
      const double p = instance.alert_distributions[0].Pmf(z0) *
                       instance.alert_distributions[1].Pmf(z1);
      const auto audited = audit::AuditedCounts(config, {z0, z1});
      ASSERT_TRUE(audited.ok());
      expected[0] += p * static_cast<double>((*audited)[0]) / z0;
      expected[1] += p * static_cast<double>((*audited)[1]) / z1;
    }
  }
  EXPECT_NEAR((*pal)[0], expected[0], 1e-9);
  EXPECT_NEAR((*pal)[1], expected[1], 1e-9);
}

TEST(DetectionModelTest, MonteCarloConvergesToExact) {
  GameInstance instance = MakeTinyGame();
  instance.alert_distributions = {
      *prob::CountDistribution::DiscretizedGaussian(4.0, 1.5, 1, 8),
      *prob::CountDistribution::DiscretizedGaussian(3.0, 1.0, 1, 6)};
  const std::vector<double> thresholds = {3.0, 3.0};

  auto exact = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(exact->SetThresholds(thresholds).ok());
  const auto exact_pal = exact->DetectionProbabilities({0, 1});
  ASSERT_TRUE(exact_pal.ok());

  DetectionModel::Options mc_options;
  mc_options.mode = DetectionModel::Mode::kMonteCarlo;
  mc_options.mc_samples = 200000;
  auto mc = DetectionModel::Create(instance, 5.0, mc_options);
  ASSERT_TRUE(mc.ok());
  ASSERT_TRUE(mc->SetThresholds(thresholds).ok());
  const auto mc_pal = mc->DetectionProbabilities({0, 1});
  ASSERT_TRUE(mc_pal.ok());

  EXPECT_NEAR((*mc_pal)[0], (*exact_pal)[0], 0.005);
  EXPECT_NEAR((*mc_pal)[1], (*exact_pal)[1], 0.005);
}

TEST(DetectionModelTest, PrefixApiMatchesFullEvaluation) {
  GameInstance instance = MakeTinyGame();
  instance.alert_distributions = {
      *prob::CountDistribution::DiscretizedGaussian(4.0, 1.5, 1, 8),
      *prob::CountDistribution::DiscretizedGaussian(3.0, 1.0, 1, 6)};
  auto model = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SetThresholds({3.0, 3.0}).ok());
  const auto full = model->DetectionProbabilities({1, 0});
  ASSERT_TRUE(full.ok());

  DetectionModel::Prefix prefix = model->EmptyPrefix();
  const double pal1 = model->PalGivenPrefix(prefix, 1);
  model->ExtendPrefix(prefix, 1);
  const double pal0 = model->PalGivenPrefix(prefix, 0);
  EXPECT_NEAR(pal1, (*full)[1], 1e-12);
  EXPECT_NEAR(pal0, (*full)[0], 1e-12);
}

TEST(DetectionModelTest, MorePrefixConsumptionLowersPal) {
  const GameInstance instance = MakeTinyGame();
  auto model = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SetThresholds({2.0, 2.0}).ok());
  DetectionModel::Prefix empty = model->EmptyPrefix();
  const double before = model->PalGivenPrefix(empty, 1);
  model->ExtendPrefix(empty, 0);
  const double after = model->PalGivenPrefix(empty, 1);
  EXPECT_GT(before, after);
}

TEST(DetectionModelTest, InclusiveSemanticsLowersPal) {
  const GameInstance instance = MakeTinyGame();
  DetectionModel::Options inclusive;
  inclusive.semantics = DetectionModel::Semantics::kInclusiveAttack;
  auto a = DetectionModel::Create(instance, 3.0);
  auto b = DetectionModel::Create(instance, 3.0, inclusive);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->SetThresholds({2.0, 2.0}).ok());
  ASSERT_TRUE(b->SetThresholds({2.0, 2.0}).ok());
  const auto pal_a = a->DetectionProbabilities({0, 1});
  const auto pal_b = b->DetectionProbabilities({0, 1});
  ASSERT_TRUE(pal_a.ok());
  ASSERT_TRUE(pal_b.ok());
  // Bin of 2 + attack = 3, capacity 2 -> 2/3 < 1; capacity 1 -> 1/3 < 1/2.
  EXPECT_NEAR((*pal_b)[0], 2.0 / 3, 1e-12);
  EXPECT_NEAR((*pal_b)[1], 1.0 / 3, 1e-12);
  EXPECT_LT((*pal_b)[0], (*pal_a)[0]);
  EXPECT_LT((*pal_b)[1], (*pal_a)[1]);
}

TEST(DetectionModelTest, ReservedConsumptionStarvesLaterTypes) {
  // Type 0: threshold 4 but only 2 alerts arrive (constant). Realized
  // consumption leaves budget for type 1; reserved consumption does not.
  GameInstance instance = MakeTinyGame();
  auto realized = DetectionModel::Create(instance, 5.0);
  DetectionModel::Options opts;
  opts.consumption = DetectionModel::Consumption::kReserved;
  auto reserved = DetectionModel::Create(instance, 5.0, opts);
  ASSERT_TRUE(realized.ok());
  ASSERT_TRUE(reserved.ok());
  ASSERT_TRUE(realized->SetThresholds({4.0, 2.0}).ok());
  ASSERT_TRUE(reserved->SetThresholds({4.0, 2.0}).ok());
  const auto pal_realized = realized->DetectionProbabilities({0, 1});
  const auto pal_reserved = reserved->DetectionProbabilities({0, 1});
  ASSERT_TRUE(pal_realized.ok());
  ASSERT_TRUE(pal_reserved.ok());
  // Realized: consumed min(4, 2) = 2 -> 3 left -> type 1 audits 2/2.
  EXPECT_NEAR((*pal_realized)[1], 1.0, 1e-12);
  // Reserved: consumed 4 -> 1 left -> type 1 audits 1/2.
  EXPECT_NEAR((*pal_reserved)[1], 0.5, 1e-12);
}

// SetThresholds re-tabulates only the types whose threshold changed since
// the last call. After a random walk of calls, each moving a random subset
// of the types (sometimes none, sometimes all), every ordering's Pal must
// be bit-identical to a fresh model's given the final vector.
TEST(DetectionModelTest, IncrementalSetThresholdsMatchesFreshModel) {
  GameInstance instance = MakeMediumGame();
  instance.audit_costs = {1.0, 2.0, 1.5};
  for (const auto mode :
       {DetectionModel::Mode::kExact, DetectionModel::Mode::kMonteCarlo}) {
    DetectionModel::Options options;
    options.mode = mode;
    options.mc_samples = 300;
    auto walked = DetectionModel::Create(instance, 7.0, options);
    ASSERT_TRUE(walked.ok());
    util::Rng rng(mode == DetectionModel::Mode::kExact ? 11 : 12);
    std::vector<double> thresholds(3, 0.0);
    for (int step = 1; step <= 200; ++step) {
      for (double& b : thresholds) {
        if (rng.UniformInt(uint64_t{2}) == 0) {
          b = 0.5 * static_cast<double>(rng.UniformInt(int64_t{0}, int64_t{16}));
        }
      }
      ASSERT_TRUE(walked->SetThresholds(thresholds).ok());
      if (step % 20 != 0) continue;
      auto fresh = DetectionModel::Create(instance, 7.0, options);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(fresh->SetThresholds(thresholds).ok());
      std::vector<int> ordering = {0, 1, 2};
      do {
        const auto got = walked->DetectionProbabilities(ordering);
        const auto want = fresh->DetectionProbabilities(ordering);
        ASSERT_TRUE(got.ok());
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(std::memcmp(got->data(), want->data(),
                              got->size() * sizeof(double)),
                  0)
            << "step " << step << " ordering " << ordering[0] << ordering[1]
            << ordering[2];
      } while (std::next_permutation(ordering.begin(), ordering.end()));
    }
  }
}

// Pal(t | S) from the subset table is the Pal of t after *any* ordering
// of S: on every ordering of every type count up to 6, each position's
// Pal matches the table entry of the set placed before it.
TEST(DetectionModelTest, SubsetTableMatchesEveryOrdering) {
  for (int types = 2; types <= 6; ++types) {
    auto spec = scenario::SpecByName(types % 2 == 0 ? "uniform" : "zipf");
    ASSERT_TRUE(spec.ok());
    spec->num_types = types;
    spec->seed = static_cast<uint64_t>(40 + types);
    const auto instance = scenario::Generate(*spec);
    ASSERT_TRUE(instance.ok());
    auto model = DetectionModel::Create(*instance, 1.5 * types);
    ASSERT_TRUE(model.ok());
    util::Rng rng(static_cast<uint64_t>(types));
    std::vector<double> thresholds;
    for (int t = 0; t < types; ++t) {
      const auto& dist = instance->alert_distributions[static_cast<size_t>(t)];
      thresholds.push_back(instance->audit_costs[static_cast<size_t>(t)] *
                           static_cast<double>(rng.UniformInt(
                               int64_t{0}, int64_t{dist.max_value()})));
    }
    ASSERT_TRUE(model->SetThresholds(thresholds).ok());
    ASSERT_TRUE(model->RefreshSubsetTable().ok());
    const std::vector<double>& table = model->subset_table();
    ASSERT_EQ(table.size(), static_cast<size_t>(types) << types);
    // Re-installing the thresholds retires the table, so the Pal below
    // comes from convolving each ordering.
    ASSERT_TRUE(model->SetThresholds(thresholds).ok());

    std::vector<int> ordering(static_cast<size_t>(types));
    std::iota(ordering.begin(), ordering.end(), 0);
    double worst = 0.0;
    do {
      const auto pal = model->DetectionProbabilities(ordering);
      ASSERT_TRUE(pal.ok());
      uint32_t placed = 0;
      for (const int t : ordering) {
        const double entry =
            table[static_cast<size_t>(placed) * types + static_cast<size_t>(t)];
        worst = std::max(worst,
                         std::fabs(entry - (*pal)[static_cast<size_t>(t)]));
        placed |= uint32_t{1} << t;
      }
    } while (std::next_permutation(ordering.begin(), ordering.end()));
    EXPECT_LE(worst, 1e-12) << types << " types";
  }
}

TEST(DetectionModelTest, SubsetTableNeedsExactModeAndThresholds) {
  const GameInstance instance = MakeMediumGame();
  auto exact = DetectionModel::Create(instance, 4.0);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact->RefreshSubsetTable().ok());  // no thresholds yet
  DetectionModel::Options options;
  options.mode = DetectionModel::Mode::kMonteCarlo;
  options.mc_samples = 50;
  auto sampled = DetectionModel::Create(instance, 4.0, options);
  ASSERT_TRUE(sampled.ok());
  ASSERT_TRUE(sampled->SetThresholds({1.0, 1.0, 1.0}).ok());
  EXPECT_FALSE(sampled->RefreshSubsetTable().ok());
}

// Whole-audit thresholds for `instance`, each type drawn from its support.
std::vector<double> RandomThresholds(const GameInstance& instance,
                                     util::Rng& rng) {
  std::vector<double> thresholds;
  for (int t = 0; t < instance.num_types(); ++t) {
    const auto& dist = instance.alert_distributions[static_cast<size_t>(t)];
    thresholds.push_back(instance.audit_costs[static_cast<size_t>(t)] *
                         static_cast<double>(rng.UniformInt(
                             int64_t{0}, int64_t{dist.max_value()})));
  }
  return thresholds;
}

GameInstance SeededGame(int types) {
  auto spec = scenario::SpecByName(types % 2 == 0 ? "uniform" : "zipf");
  EXPECT_TRUE(spec.ok());
  spec->num_types = types;
  spec->seed = static_cast<uint64_t>(60 + types);
  auto instance = scenario::Generate(*spec);
  EXPECT_TRUE(instance.ok());
  return *std::move(instance);
}

// A refresh recomputes only the sets and entries a moved threshold
// touches; after any sequence of moves the table must be bitwise the one
// a fresh model builds from scratch, and a refresh with nothing moved must
// do no work.
TEST(DetectionModelTest, RefreshedSubsetTableMatchesFullRebuild) {
  for (int types = 2; types <= 7; ++types) {
    const GameInstance instance = SeededGame(types);
    auto walked = DetectionModel::Create(instance, 1.5 * types);
    ASSERT_TRUE(walked.ok());
    util::Rng rng(static_cast<uint64_t>(100 + types));
    std::vector<double> thresholds = RandomThresholds(instance, rng);
    ASSERT_TRUE(walked->SetThresholds(thresholds).ok());
    ASSERT_TRUE(walked->RefreshSubsetTable().ok());
    for (int step = 0; step < 40; ++step) {
      // Move 1-3 types to fresh values from the same draw as the start.
      const std::vector<double> draw = RandomThresholds(instance, rng);
      const int moves = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
      for (int m = 0; m < moves; ++m) {
        const size_t t = rng.UniformInt(static_cast<uint64_t>(types));
        thresholds[t] = draw[t];
      }
      ASSERT_TRUE(walked->SetThresholds(thresholds).ok());
      ASSERT_TRUE(walked->RefreshSubsetTable().ok());

      auto fresh = DetectionModel::Create(instance, 1.5 * types);
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(fresh->SetThresholds(thresholds).ok());
      ASSERT_TRUE(fresh->RefreshSubsetTable().ok());
      const std::vector<double>& got = walked->subset_table();
      const std::vector<double>& want = fresh->subset_table();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << types << " types, step " << step;
    }
    const int64_t refreshes = walked->stats().table_refreshes;
    ASSERT_TRUE(walked->SetThresholds(thresholds).ok());
    ASSERT_TRUE(walked->RefreshSubsetTable().ok());
    EXPECT_EQ(walked->stats().table_refreshes, refreshes);
  }
}

// While the table is current, prefixes read Pal(t | placed) from it: the
// Pal of every ordering, and of every candidate greedy pricing scores at
// every step, must match the convolution path.
TEST(DetectionModelTest, TableBackedPrefixesMatchConvolution) {
  for (int types = 2; types <= 6; ++types) {
    const GameInstance instance = SeededGame(types);
    util::Rng rng(static_cast<uint64_t>(200 + types));
    const std::vector<double> thresholds = RandomThresholds(instance, rng);
    auto table = DetectionModel::Create(instance, 1.5 * types);
    auto convolved = DetectionModel::Create(instance, 1.5 * types);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(convolved.ok());
    ASSERT_TRUE(table->SetThresholds(thresholds).ok());
    ASSERT_TRUE(table->RefreshSubsetTable().ok());
    ASSERT_TRUE(convolved->SetThresholds(thresholds).ok());

    DetectionModel::Prefix table_prefix;
    DetectionModel::Prefix grid_prefix;
    std::vector<double> table_pal;
    std::vector<double> grid_pal;
    std::vector<int> ordering(static_cast<size_t>(types));
    std::iota(ordering.begin(), ordering.end(), 0);
    double worst = 0.0;
    do {
      ASSERT_TRUE(table->DetectionProbabilitiesInto(ordering, table_prefix,
                                                    table_pal)
                      .ok());
      ASSERT_NE(table_prefix.table_epoch, 0u);
      ASSERT_TRUE(convolved
                      ->DetectionProbabilitiesInto(ordering, grid_prefix,
                                                   grid_pal)
                      .ok());
      ASSERT_EQ(grid_prefix.table_epoch, 0u);
      for (int t = 0; t < types; ++t) {
        worst = std::max(worst, std::fabs(table_pal[t] - grid_pal[t]));
      }
      // Greedy's view: every unplaced candidate after each prefix.
      table->ResetPrefix(table_prefix);
      convolved->ResetPrefix(grid_prefix);
      uint32_t placed = 0;
      for (const int next : ordering) {
        for (int t = 0; t < types; ++t) {
          if ((placed >> t) & 1u) continue;
          worst = std::max(
              worst, std::fabs(table->PalGivenPrefix(table_prefix, t) -
                               convolved->PalGivenPrefix(grid_prefix, t)));
        }
        table->ExtendPrefix(table_prefix, next);
        convolved->ExtendPrefix(grid_prefix, next);
        placed |= uint32_t{1} << next;
      }
    } while (std::next_permutation(ordering.begin(), ordering.end()));
    EXPECT_LE(worst, 1e-12) << types << " types";
  }
}

// A table-backed prefix is only valid until the next SetThresholds.
TEST(DetectionModelDeathTest, TableBackedPrefixAfterThresholdMoveAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const GameInstance instance = MakeMediumGame();
  auto model = DetectionModel::Create(instance, 4.0);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SetThresholds({1.0, 2.0, 1.0}).ok());
  ASSERT_TRUE(model->RefreshSubsetTable().ok());
  DetectionModel::Prefix prefix = model->EmptyPrefix();
  ASSERT_NE(prefix.table_epoch, 0u);
  model->ExtendPrefix(prefix, 0);
  ASSERT_TRUE(model->SetThresholds({1.0, 3.0, 1.0}).ok());
  EXPECT_DEATH(model->PalGivenPrefix(prefix, 1), "table-backed prefix");
  EXPECT_DEATH(model->ExtendPrefix(prefix, 1), "table-backed prefix");
  // Refreshing does not revive it either: the table moved on.
  ASSERT_TRUE(model->RefreshSubsetTable().ok());
  EXPECT_DEATH(model->PalGivenPrefix(prefix, 1), "table-backed prefix");
}

// SetThresholds reuses a type's tables for a threshold it has tabulated
// before, and replaces the oldest slot once kTypeTableMemo are held. A
// walk over more distinct values than the memo holds, revisiting often,
// must leave every Pal and the subset table bitwise equal to a fresh
// model's.
TEST(DetectionModelTest, MemoizedTablesMatchFreshModel) {
  GameInstance instance = MakeMediumGame();
  instance.audit_costs = {1.0, 2.0, 1.5};
  auto walked = DetectionModel::Create(instance, 9.0);
  ASSERT_TRUE(walked.ok());
  util::Rng rng(17);
  std::vector<double> thresholds(3, 0.0);
  const int values = DetectionModel::kTypeTableMemo + 8;
  int64_t retabulated = 0;
  for (int step = 1; step <= 400; ++step) {
    const size_t t = rng.UniformInt(uint64_t{3});
    // Early steps revisit a few values (memo hits); later ones range
    // over more values than the memo holds (evictions).
    const int64_t range = step <= 100 ? 4 : values;
    thresholds[t] = 0.25 * static_cast<double>(
                               rng.UniformInt(int64_t{0}, range - 1));
    ASSERT_TRUE(walked->SetThresholds(thresholds).ok());
    if (step == 100) {
      retabulated = walked->stats().types_retabulated;
      // At most 4 values of 3 types, plus the first call's 3 tables.
      EXPECT_LE(retabulated, 3 + 3 * 4);
    }
    if (step % 25 != 0) continue;
    ASSERT_TRUE(walked->RefreshSubsetTable().ok());
    auto fresh = DetectionModel::Create(instance, 9.0);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(fresh->SetThresholds(thresholds).ok());
    ASSERT_TRUE(fresh->RefreshSubsetTable().ok());
    EXPECT_EQ(std::memcmp(walked->subset_table().data(),
                          fresh->subset_table().data(),
                          fresh->subset_table().size() * sizeof(double)),
              0)
        << "step " << step;
    // Convolution path: retire both tables.
    ASSERT_TRUE(walked->SetThresholds(thresholds).ok());
    ASSERT_TRUE(fresh->SetThresholds(thresholds).ok());
    std::vector<int> ordering = {0, 1, 2};
    do {
      const auto got = walked->DetectionProbabilities(ordering);
      const auto want = fresh->DetectionProbabilities(ordering);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(std::memcmp(got->data(), want->data(),
                            got->size() * sizeof(double)),
                0)
          << "step " << step;
    } while (std::next_permutation(ordering.begin(), ordering.end()));
  }
  EXPECT_GT(walked->stats().types_retabulated,
            retabulated + DetectionModel::kTypeTableMemo);
}

// Property sweep: for any ordering and thresholds, Pal values are in [0,1]
// and monotonically non-increasing when the budget shrinks.
class DetectionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DetectionPropertyTest, BudgetMonotonicity) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  GameInstance instance = MakeTinyGame();
  instance.type_names = {"a", "b", "c"};
  instance.audit_costs = {1.0, 1.0, 1.0};
  instance.alert_distributions.clear();
  for (int t = 0; t < 3; ++t) {
    const int mean = 2 + static_cast<int>(rng.UniformInt(4));
    instance.alert_distributions.push_back(
        *prob::CountDistribution::DiscretizedGaussian(
            mean, 1.0 + rng.Uniform(), 1, mean + 4));
  }
  instance.adversaries[0].victims[0].type_probs = {1.0, 0.0, 0.0};
  instance.adversaries[0].victims[1].type_probs = {0.0, 1.0, 0.0};

  std::vector<double> thresholds(3);
  for (auto& b : thresholds) b = static_cast<double>(rng.UniformInt(6));
  std::vector<int> ordering = {0, 1, 2};
  rng.Shuffle(ordering);

  std::vector<double> previous(3, 0.0);
  for (double budget : {0.0, 2.0, 4.0, 8.0, 16.0}) {
    auto model = DetectionModel::Create(instance, budget);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(model->SetThresholds(thresholds).ok());
    const auto pal = model->DetectionProbabilities(ordering);
    ASSERT_TRUE(pal.ok());
    for (int t = 0; t < 3; ++t) {
      EXPECT_GE((*pal)[t], previous[t] - 1e-9)
          << "budget " << budget << " type " << t;
      EXPECT_GE((*pal)[t], -1e-12);
      EXPECT_LE((*pal)[t], 1.0 + 1e-12);
      previous[t] = (*pal)[t];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, DetectionPropertyTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace auditgame::core
