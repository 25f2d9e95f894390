#include "data/syn_a.h"

#include <array>

namespace auditgame::data {
namespace {

constexpr int kNumTypes = 4;
constexpr int kNumEmployees = 5;
constexpr int kNumRecords = 8;

constexpr std::array<double, kNumTypes> kMeans = {6, 5, 4, 4};
constexpr std::array<double, kNumTypes> kStds = {2, 1.6, 1.3, 1};
constexpr std::array<int, kNumTypes> kCoverage = {5, 4, 3, 3};
constexpr std::array<double, kNumTypes> kBenefit = {3.4, 3.7, 4.0, 4.3};
constexpr double kAttackCost = 0.4;
constexpr double kAuditCost = 1.0;
constexpr double kPenalty = 4.0;
constexpr double kAttackProbability = 1.0;

// Table IIb: alert type (1-based) triggered by employee e accessing record
// r; 0 denotes a benign access.
constexpr int kTypeMatrix[kNumEmployees][kNumRecords] = {
    {0, 3, 2, 2, 3, 4, 3, 1},  // e1
    {1, 0, 1, 1, 1, 2, 1, 1},  // e2
    {1, 3, 4, 0, 1, 3, 1, 4},  // e3
    {2, 1, 3, 1, 4, 4, 2, 2},  // e4
    {2, 3, 1, 4, 2, 1, 3, 2},  // e5
};

}  // namespace

util::StatusOr<core::GameInstance> MakeSynA(SynABenignMode benign_mode) {
  core::GameInstance instance;
  instance.type_names = {"Type 1", "Type 2", "Type 3", "Type 4"};
  instance.audit_costs.assign(kNumTypes, kAuditCost);
  for (int t = 0; t < kNumTypes; ++t) {
    const int lo = std::max(0, static_cast<int>(kMeans[t]) - kCoverage[t]);
    const int hi = static_cast<int>(kMeans[t]) + kCoverage[t];
    ASSIGN_OR_RETURN(prob::CountDistribution dist,
                     prob::CountDistribution::DiscretizedGaussian(
                         kMeans[t], kStds[t], lo, hi));
    instance.alert_distributions.push_back(std::move(dist));
  }
  for (int e = 0; e < kNumEmployees; ++e) {
    core::Adversary adversary;
    adversary.attack_probability = kAttackProbability;
    for (int r = 0; r < kNumRecords; ++r) {
      const int type = kTypeMatrix[e][r];
      if (type == 0 && benign_mode == SynABenignMode::kFreeOptOut) {
        // The "-" access is interpreted as refraining from an attack.
        adversary.can_opt_out = true;
        continue;
      }
      core::VictimProfile victim;
      victim.type_probs.assign(kNumTypes, 0.0);
      victim.attack_cost = kAttackCost;
      victim.penalty = kPenalty;
      if (type > 0) {
        victim.type_probs[type - 1] = 1.0;
        victim.benefit = kBenefit[type - 1];
      } else {
        victim.benefit = 0.0;  // benign access: no alert, no gain
      }
      adversary.victims.push_back(std::move(victim));
    }
    instance.adversaries.push_back(std::move(adversary));
  }
  RETURN_IF_ERROR(instance.Validate());
  return instance;
}

}  // namespace auditgame::data
