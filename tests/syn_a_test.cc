#include "data/syn_a.h"

#include <gtest/gtest.h>

namespace auditgame::data {
namespace {

TEST(SynATest, MatchesTableII) {
  const auto instance = MakeSynA();
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->num_types(), 4);
  EXPECT_EQ(instance->adversaries.size(), 5u);
  // Supports are mean +/- 99.5% coverage, clipped per Table IIa.
  EXPECT_EQ(instance->alert_distributions[0].min_value(), 1);
  EXPECT_EQ(instance->alert_distributions[0].max_value(), 11);
  EXPECT_EQ(instance->alert_distributions[1].max_value(), 9);
  EXPECT_EQ(instance->alert_distributions[2].max_value(), 7);
  EXPECT_EQ(instance->alert_distributions[3].max_value(), 7);
  for (double c : instance->audit_costs) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(SynATest, DistributionMeansApproximateTable) {
  const auto instance = MakeSynA();
  ASSERT_TRUE(instance.ok());
  const double expected[] = {6.0, 5.0, 4.0, 4.0};
  for (int t = 0; t < 4; ++t) {
    EXPECT_NEAR(instance->alert_distributions[t].Mean(), expected[t], 0.05);
  }
}

TEST(SynATest, BenignEntriesBecomeOptOut) {
  const auto instance = MakeSynA();
  ASSERT_TRUE(instance.ok());
  // Employees e1, e2, e3 (0-indexed 0..2) have "-" entries in Table IIb;
  // under the default kFreeOptOut mode they can refrain and their victim
  // lists shrink to 7.
  EXPECT_TRUE(instance->adversaries[0].can_opt_out);
  EXPECT_TRUE(instance->adversaries[1].can_opt_out);
  EXPECT_TRUE(instance->adversaries[2].can_opt_out);
  EXPECT_FALSE(instance->adversaries[3].can_opt_out);
  EXPECT_FALSE(instance->adversaries[4].can_opt_out);
  EXPECT_EQ(instance->adversaries[0].victims.size(), 7u);
  EXPECT_EQ(instance->adversaries[3].victims.size(), 8u);
}

TEST(SynATest, VictimEconomicsMatchTable) {
  const auto instance = MakeSynA();
  ASSERT_TRUE(instance.ok());
  // e1 accessing r8 triggers type 1 -> benefit 3.4.
  const core::VictimProfile& victim = instance->adversaries[0].victims.back();
  EXPECT_DOUBLE_EQ(victim.type_probs[0], 1.0);
  EXPECT_DOUBLE_EQ(victim.benefit, 3.4);
  EXPECT_DOUBLE_EQ(victim.penalty, 4.0);
  EXPECT_DOUBLE_EQ(victim.attack_cost, 0.4);
}

TEST(SynATest, CostlyAccessModeKeepsBenignVictims) {
  const auto instance = MakeSynA(SynABenignMode::kCostlyAccess);
  ASSERT_TRUE(instance.ok());
  EXPECT_FALSE(instance->adversaries[0].can_opt_out);
  EXPECT_EQ(instance->adversaries[0].victims.size(), 8u);
  // The benign victim has zero benefit but still pays the attack cost.
  bool found_benign = false;
  for (const auto& victim : instance->adversaries[0].victims) {
    double total_prob = 0.0;
    for (double p : victim.type_probs) total_prob += p;
    if (total_prob == 0.0) {
      EXPECT_DOUBLE_EQ(victim.benefit, 0.0);
      EXPECT_DOUBLE_EQ(victim.attack_cost, 0.4);
      found_benign = true;
    }
  }
  EXPECT_TRUE(found_benign);
}

TEST(SynATest, InstanceValidates) {
  const auto instance = MakeSynA();
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(instance->Validate().ok());
  const auto compiled = core::Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  // 5 employees with distinct rows -> no merges expected, but dedup of
  // victims of the same type within an employee shrinks rows.
  EXPECT_LE(compiled->num_rows(), 5 * 8);
}

}  // namespace
}  // namespace auditgame::data
