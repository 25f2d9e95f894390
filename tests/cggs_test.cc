#include "core/cggs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "core/game_lp.h"
#include "core/master_lp.h"
#include "data/syn_a.h"
#include "scenario/generator.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace auditgame::core {
namespace {

using testutil::MakeMediumGame;
using testutil::MakeTinyGame;

TEST(CggsTest, FindsTheMixOnTinyGame) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0});
  ASSERT_TRUE(result.ok());
  // Full LP optimum is 0 (complete deterrence); CGGS must reach it since
  // the other ordering has negative reduced cost.
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  EXPECT_GE(result->columns_generated, 1);
}

TEST(CggsTest, InvalidWarmStartOrderingsAreDroppedNotSolved) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  // A stale cached policy: wrong length, out-of-range type, a duplicate
  // type, plus one valid seed and its duplicate.
  options.initial_orderings = {{0}, {0, 5}, {1, 1}, {1, 0}, {1, 0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  for (const auto& column : result->columns) {
    ASSERT_EQ(column.size(), 2u);
    EXPECT_NE(column[0], column[1]);
  }
}

TEST(CggsTest, AllInvalidWarmStartsFallBackToIdentity) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.initial_orderings = {{7, 8}, {0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  const auto cold = SolveCggs(*compiled, *detection, {2.0, 2.0});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(result->objective, cold->objective);
}

TEST(CggsTest, NeverWorseThanInitialColumn) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({3.0, 3.0, 3.0}).ok());
  const auto single =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1, 2}});
  ASSERT_TRUE(single.ok());
  const auto cggs = SolveCggs(*compiled, *detection, {3.0, 3.0, 3.0});
  ASSERT_TRUE(cggs.ok());
  EXPECT_LE(cggs->objective, single->objective + 1e-9);
}

TEST(CggsTest, MatchesFullLpOnSynA) {
  // On the controlled instance, CGGS should get within a small gap of the
  // exact LP over all 24 orderings (the paper's Table IV vs Table V).
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  for (double budget : {4.0, 10.0}) {
    auto detection = DetectionModel::Create(*instance, budget);
    ASSERT_TRUE(detection.ok());
    const std::vector<double> thresholds = {3.0, 3.0, 2.0, 2.0};
    const auto full = SolveFullGameLp(*compiled, *detection, thresholds);
    const auto cggs = SolveCggs(*compiled, *detection, thresholds);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(cggs.ok());
    EXPECT_LE(cggs->objective - full->objective, 0.05)
        << "budget " << budget;
    EXPECT_GE(cggs->objective - full->objective, -1e-6) << "budget " << budget;
  }
}

TEST(CggsTest, WarmStartColumnsAreUsed) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.initial_orderings = {{0, 1}, {1, 0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  // Optimal from the warm start: no columns needed to be generated.
  EXPECT_EQ(result->columns_generated, 0);
  EXPECT_EQ(result->lp_solves, 1);
}

TEST(CggsTest, WarmMasterMatchesColdSolveOfItsColumnsOnSynA) {
  // The master re-solves warm from the previous basis after every appended
  // column. A cold one-shot solve over the final column set must land on
  // the same objective, and every re-solve after the first must have been
  // warm.
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  for (double budget : {4.0, 10.0}) {
    auto detection = DetectionModel::Create(*instance, budget);
    ASSERT_TRUE(detection.ok());
    const std::vector<double> thresholds = {3.0, 3.0, 2.0, 2.0};
    const auto warm = SolveCggs(*compiled, *detection, thresholds);
    ASSERT_TRUE(warm.ok());
    const auto cold =
        SolveRestrictedGameLp(*compiled, *detection, warm->columns);
    ASSERT_TRUE(cold.ok());
    EXPECT_NEAR(warm->objective, cold->objective, 1e-9)
        << "budget " << budget;
    EXPECT_EQ(warm->warm_lp_solves, warm->lp_solves - 1);
    EXPECT_TRUE(warm->policy.Validate(4).ok());
  }
}

TEST(CggsTest, PolicyIsValidDistribution) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 6.0);
  ASSERT_TRUE(detection.ok());
  const auto result = SolveCggs(*compiled, *detection, {4.0, 4.0, 4.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->policy.Validate(3).ok());
  // Evaluating the policy reproduces the LP objective.
  const auto eval = EvaluatePolicy(*compiled, *detection, result->policy);
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(eval->auditor_loss, result->objective, 1e-6);
}

TEST(CggsTest, MaxColumnsCapRespected) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.max_columns = 2;
  const auto result = SolveCggs(*compiled, *detection, {3.0, 3.0, 3.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->columns.size(), 2u);
}

// The bound's oracle: projects `raw` the way ProjectDualUtility documents
// (envelope victims only, clamped at 0, each group scaled to sum to w_g,
// or to at most w_g when it can opt out; a zero group spread evenly), then
// enumerates all |T|! orderings for the least dual-weighted utility.
double EnumeratedMinimum(const CompiledGame& game, DetectionModel& detection,
                         const std::vector<std::vector<double>>& raw) {
  std::vector<std::vector<double>> duals(game.groups.size());
  for (size_t g = 0; g < game.groups.size(); ++g) {
    const AdversaryGroup& group = game.groups[g];
    duals[g].assign(group.victims.size(), 0.0);
    double sum = 0.0;
    for (const int v : group.envelope) sum += std::max(0.0, raw[g][v]);
    for (const int v : group.envelope) {
      double y = sum > 0.0 ? std::max(0.0, raw[g][v])
                           : group.weight / group.envelope.size();
      if (sum > 0.0 && (!group.can_opt_out || sum > group.weight)) {
        y *= group.weight / sum;
      }
      duals[g][static_cast<size_t>(v)] = y;
    }
  }
  std::vector<int> ordering(static_cast<size_t>(game.num_types));
  std::iota(ordering.begin(), ordering.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    const auto pal = detection.DetectionProbabilities(ordering);
    EXPECT_TRUE(pal.ok());
    double total = 0.0;
    for (size_t g = 0; g < game.groups.size(); ++g) {
      const auto& victims = game.groups[g].victims;
      for (size_t v = 0; v < victims.size(); ++v) {
        total += duals[g][v] * AdversaryUtility(victims[v], *pal);
      }
    }
    best = std::min(best, total);
  } while (std::next_permutation(ordering.begin(), ordering.end()));
  return best;
}

// The subset DP over the detection model's table finds the same minimum
// as enumerating every ordering, for raw duals of any sign and scale and
// for groups with and without an opt-out.
TEST(CggsTest, MinOverOrderingsMatchesEnumeration) {
  const char* families[] = {"uniform", "zipf", "correlated"};
  for (int types = 3; types <= 7; ++types) {
    auto spec = scenario::SpecByName(families[types % 3]);
    ASSERT_TRUE(spec.ok());
    spec->num_types = types;
    spec->seed = static_cast<uint64_t>(70 + types);
    auto instance = scenario::Generate(*spec);
    ASSERT_TRUE(instance.ok());
    for (size_t e = 0; e < instance->adversaries.size(); e += 2) {
      instance->adversaries[e].can_opt_out = false;
    }
    const auto game = Compile(*instance);
    ASSERT_TRUE(game.ok());
    auto detection = DetectionModel::Create(*instance, 1.5 * types);
    ASSERT_TRUE(detection.ok());
    util::Rng rng(static_cast<uint64_t>(types) * 13);
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> thresholds;
      for (int t = 0; t < types; ++t) {
        thresholds.push_back(
            static_cast<double>(rng.UniformInt(int64_t{0}, int64_t{8})));
      }
      ASSERT_TRUE(detection->SetThresholds(thresholds).ok());
      ASSERT_TRUE(detection->RefreshSubsetTable().ok());
      std::vector<std::vector<double>> raw(game->groups.size());
      for (size_t g = 0; g < raw.size(); ++g) {
        for (size_t v = 0; v < game->groups[g].victims.size(); ++v) {
          // The last trial zeroes every group: the even-spread case.
          raw[g].push_back(trial == 2 ? 0.0 : rng.Uniform(-0.5, 2.0));
        }
      }
      DualUtility f;
      ProjectDualUtility(*game, UtilityRows(*game), raw, f);
      std::vector<double> scratch;
      const double dp = MinOverOrderings(*detection, &f, 1, scratch);
      // Re-installing the thresholds retires the table, so the oracle's
      // Pal comes from convolving each ordering.
      ASSERT_TRUE(detection->SetThresholds(thresholds).ok());
      const double oracle = EnumeratedMinimum(*game, *detection, raw);
      EXPECT_NEAR(dp, oracle, 1e-12 * (1.0 + std::fabs(oracle)))
          << types << " types, trial " << trial;
    }
  }
}

// One entry's subset DP written out on its own, as a reference for the
// fused pass: best(S) = max over t in S of best(S \ t) + slope_t *
// Pal(t | S \ t), in increasing t.
double SingleEntryDp(const DetectionModel& detection, const DualUtility& f) {
  const int t_count = detection.num_types();
  const uint32_t full = (uint32_t{1} << t_count) - 1;
  const std::vector<double>& table = detection.subset_table();
  std::vector<double> best(static_cast<size_t>(full) + 1);
  for (uint32_t set = 1; set <= full; ++set) {
    double value = -std::numeric_limits<double>::infinity();
    for (int t = 0; t < t_count; ++t) {
      if (((set >> t) & 1u) == 0) continue;
      const uint32_t before = set & ~(uint32_t{1} << t);
      const double pal = table[static_cast<size_t>(before) * t_count + t];
      value = std::max(value,
                       best[before] + f.slope[static_cast<size_t>(t)] * pal);
    }
    best[set] = value;
  }
  return f.constant - best[full];
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The fused DP over a whole dual ring returns, bit for bit, the largest of
// the entries' single-entry minima, for every ring fill CggsSweep can
// reach: projected duals from raw duals with zero and negative entries,
// and unprojected forms whose slopes are zero or negative. Each
// single-entry call must in turn match the DP written out above.
TEST(CggsTest, MinOverOrderingsRingEqualsMaxOfSingleEntries) {
  for (int types = 3; types <= 7; ++types) {
    auto spec = scenario::SpecByName("uniform");
    ASSERT_TRUE(spec.ok());
    spec->num_types = types;
    spec->seed = static_cast<uint64_t>(90 + types);
    auto instance = scenario::Generate(*spec);
    ASSERT_TRUE(instance.ok());
    const auto game = Compile(*instance);
    ASSERT_TRUE(game.ok());
    const UtilityRows rows(*game);
    auto detection = DetectionModel::Create(*instance, 1.5 * types);
    ASSERT_TRUE(detection.ok());
    util::Rng rng(static_cast<uint64_t>(types) * 31);
    std::vector<DualUtility> ring(8);
    for (size_t k = 0; k < ring.size(); ++k) {
      if (k % 2 == 0) {
        std::vector<std::vector<double>> raw(game->groups.size());
        for (size_t g = 0; g < raw.size(); ++g) {
          for (size_t v = 0; v < game->groups[g].victims.size(); ++v) {
            // Entry 4 is all zero: the even-spread case.
            const int64_t pick = rng.UniformInt(int64_t{0}, int64_t{2});
            raw[g].push_back(k == 4 || pick == 0 ? 0.0
                             : pick == 1         ? -rng.Uniform(0.0, 1.0)
                                                 : rng.Uniform(0.0, 2.0));
          }
        }
        ProjectDualUtility(*game, rows, raw, ring[k]);
      } else {
        ring[k].constant = rng.Uniform(-5.0, 5.0);
        ring[k].slope.clear();
        for (int t = 0; t < types; ++t) {
          ring[k].slope.push_back(t % 3 == 0 ? 0.0 : rng.Uniform(-2.0, 2.0));
        }
      }
    }
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<double> thresholds;
      for (int t = 0; t < types; ++t) {
        thresholds.push_back(
            static_cast<double>(rng.UniformInt(int64_t{0}, int64_t{8})));
      }
      ASSERT_TRUE(detection->SetThresholds(thresholds).ok());
      ASSERT_TRUE(detection->RefreshSubsetTable().ok());
      std::vector<double> scratch;
      for (size_t fill = 1; fill <= ring.size(); ++fill) {
        double expected = -std::numeric_limits<double>::infinity();
        for (size_t k = 0; k < fill; ++k) {
          const double single =
              MinOverOrderings(*detection, &ring[k], 1, scratch);
          EXPECT_TRUE(SameBits(single, SingleEntryDp(*detection, ring[k])))
              << types << " types, trial " << trial << ", entry " << k;
          expected = std::max(expected, single);
        }
        const double fused =
            MinOverOrderings(*detection, ring.data(), fill, scratch);
        EXPECT_TRUE(SameBits(fused, expected))
            << types << " types, trial " << trial << ", fill " << fill
            << ": " << fused << " vs " << expected;
      }
    }
    std::vector<double> scratch;
    EXPECT_EQ(MinOverOrderings(*detection, ring.data(), 0, scratch),
              -std::numeric_limits<double>::infinity());
  }
}

// Pricing and the master read adversary utilities through one linear form
// per envelope victim (UtilityRows). On seeded games, a
// round's reduced cost and every master coefficient must equal the sums
// of per-victim AdversaryUtility values they replace.
TEST(CggsTest, LinearFormMatchesPerVictimUtilities) {
  const char* families[] = {"uniform", "zipf", "correlated"};
  for (int game_index = 0; game_index < 6; ++game_index) {
    auto spec = scenario::SpecByName(families[game_index % 3]);
    ASSERT_TRUE(spec.ok());
    spec->num_types = 4 + game_index % 3;
    spec->seed = static_cast<uint64_t>(70 + game_index);
    const auto instance = scenario::Generate(*spec);
    ASSERT_TRUE(instance.ok());
    const auto game = Compile(*instance);
    ASSERT_TRUE(game.ok());
    const int types = game->num_types;
    auto detection = DetectionModel::Create(*instance, 1.5 * types);
    ASSERT_TRUE(detection.ok());
    util::Rng rng(static_cast<uint64_t>(game_index) + 3);
    std::vector<double> thresholds;
    for (int t = 0; t < types; ++t) {
      thresholds.push_back(
          static_cast<double>(rng.UniformInt(int64_t{0}, int64_t{8})));
    }
    ASSERT_TRUE(detection->SetThresholds(thresholds).ok());

    RestrictedMasterLp master(*game, *detection);
    std::vector<std::vector<double>> pals;
    std::vector<int> ordering(static_cast<size_t>(types));
    std::iota(ordering.begin(), ordering.end(), 0);
    for (int o = 0; o < 6; ++o) {
      rng.Shuffle(ordering);
      if (master.HasOrdering(ordering)) continue;
      ASSERT_TRUE(master.AddOrdering(ordering).ok());
      const auto pal = detection->DetectionProbabilities(ordering);
      ASSERT_TRUE(pal.ok());
      pals.push_back(*pal);
    }

    // Master coefficients: row r of the envelope holds -Ua of each column.
    int row = 0;
    for (const AdversaryGroup& group : game->groups) {
      for (const int v : group.envelope) {
        const std::vector<double>& coeffs = master.model().row_coeffs(row);
        ASSERT_EQ(coeffs.size(), pals.size() + 1);
        for (size_t o = 0; o < pals.size(); ++o) {
          const double want = -AdversaryUtility(
              group.victims[static_cast<size_t>(v)], pals[o]);
          EXPECT_NEAR(coeffs[o + 1], want, 1e-12 * (1.0 + std::fabs(want)))
              << "game " << game_index << " row " << row << " column " << o;
        }
        ++row;
      }
    }

    // Reduced costs: the pricing form of raw duals of either sign.
    std::vector<std::vector<double>> duals(game->groups.size());
    for (size_t g = 0; g < duals.size(); ++g) {
      for (size_t v = 0; v < game->groups[g].victims.size(); ++v) {
        duals[g].push_back(rng.Uniform(-0.5, 2.0));
      }
    }
    DualUtility f;
    PricingDualUtility(*game, master.utility_rows(), duals, f);
    for (const std::vector<double>& pal : pals) {
      double want = 0.0;
      for (size_t g = 0; g < duals.size(); ++g) {
        const AdversaryGroup& group = game->groups[g];
        for (const int v : group.envelope) {
          const double y = duals[g][static_cast<size_t>(v)];
          if (y > 0) {
            want += y * AdversaryUtility(
                            group.victims[static_cast<size_t>(v)], pal);
          }
        }
      }
      EXPECT_NEAR(f.Value(pal.data()), want, 1e-12 * (1.0 + std::fabs(want)))
          << "game " << game_index;
    }
  }
}

}  // namespace
}  // namespace auditgame::core
