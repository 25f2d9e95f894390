// Custom rules: shows how a downstream user plugs their OWN alert taxonomy
// into the library — define predicates over access events, register them in
// a RuleEngine, classify a stream of events, learn alert volumes, and solve
// for an audit policy. The domain here is a SaaS database with three
// home-grown alert types (off-hours access, bulk export, cross-tenant
// read).
#include <iostream>

#include "audit/event.h"
#include "audit/log.h"
#include "audit/rules.h"
#include "core/game.h"
#include "solver/solver.h"
#include "util/random.h"

using namespace auditgame;  // NOLINT

namespace {

audit::RuleEngine BuildSaasRules() {
  audit::RuleEngine engine;
  // Cross-tenant read: subject's tenant differs from the object's tenant.
  auto cross_tenant = audit::Not(
      audit::StringAttrsMatch("subject_tenant", "object_tenant"));
  // Bulk export: more than 5000 rows touched.
  auto bulk = audit::NumericAttrGreater("rows", 5000);
  // Off-hours: hour outside 8..18.
  auto off_hours = audit::Or(audit::NumericAttrLess("hour", 8),
                             audit::NumericAttrGreater("hour", 18));
  // Most severe first; each event maps to at most one type.
  (void)engine.AddRule({"cross_tenant", 2, 1.0, cross_tenant});
  (void)engine.AddRule({"bulk_export", 1, 1.0, bulk});
  // Off-hours access is noisy: only 60% of matches raise an alert.
  (void)engine.AddRule({"off_hours", 0, 0.6, off_hours});
  return engine;
}

audit::AccessEvent RandomEvent(util::Rng& rng) {
  audit::AccessEvent event;
  event.subject_id = "user" + std::to_string(rng.UniformInt(40));
  event.object_id = "table" + std::to_string(rng.UniformInt(12));
  event.string_attrs["subject_tenant"] =
      "T" + std::to_string(rng.UniformInt(6));
  event.string_attrs["object_tenant"] =
      rng.Uniform() < 0.97 ? event.string_attrs["subject_tenant"]
                           : "T" + std::to_string(rng.UniformInt(6));
  event.numeric_attrs["rows"] = rng.Uniform() < 0.05
                                    ? rng.Uniform(5000, 50000)
                                    : rng.Uniform(1, 2000);
  event.numeric_attrs["hour"] = static_cast<double>(rng.UniformInt(24));
  return event;
}

}  // namespace

int main() {
  const audit::RuleEngine rules = BuildSaasRules();
  util::Rng rng(4242);

  // Classify 30 days of events into an alert log.
  audit::AlertLog log(3);
  for (int day = 0; day < 30; ++day) {
    log.StartPeriod();
    for (int e = 0; e < 600; ++e) {
      const auto type = rules.Trigger(RandomEvent(rng), rng);
      if (type.has_value()) (void)log.Record(*type);
    }
  }
  std::cout << "=== Learned alert volumes (30 days, 600 events/day) ===\n";
  core::GameInstance game;
  game.type_names = {"off_hours", "bulk_export", "cross_tenant"};
  game.audit_costs = {1.0, 3.0, 2.0};  // bulk exports take longest to vet
  for (int t = 0; t < 3; ++t) {
    auto dist = log.LearnGaussianFit(t);
    if (!dist.ok()) {
      auto fallback = log.LearnDistribution(t);
      if (!fallback.ok()) {
        std::cerr << fallback.status() << "\n";
        return 1;
      }
      dist = fallback;
    }
    std::cout << "  " << game.type_names[static_cast<size_t>(t)] << ": mean "
              << dist->Mean() << ", support [" << dist->min_value() << ", "
              << dist->max_value() << "]\n";
    game.alert_distributions.push_back(*std::move(dist));
  }

  // One class of malicious insiders who may trigger any of the types.
  auto victim = [](int type, double benefit) {
    core::VictimProfile v;
    v.type_probs = {0, 0, 0};
    v.type_probs[static_cast<size_t>(type)] = 1.0;
    v.benefit = benefit;
    v.penalty = 25.0;
    v.attack_cost = 1.0;
    return v;
  };
  core::Adversary insider;
  insider.attack_probability = 1.0;
  insider.can_opt_out = true;
  insider.victims = {victim(0, 6.0), victim(1, 30.0), victim(2, 18.0)};
  game.adversaries.assign(10, insider);

  const double budget = 40.0;
  solver::EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &game;
  request.budget = budget;
  request.options.ishm.step_size = 0.1;
  auto result = solver::Solve(request);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }

  std::cout << "\n=== Audit policy for budget " << budget << " ===\n";
  std::cout << "Expected loss: " << result->objective << "\n";
  for (int t = 0; t < 3; ++t) {
    std::cout << "  " << game.type_names[static_cast<size_t>(t)]
              << ": up to "
              << static_cast<int>(
                     result->thresholds[static_cast<size_t>(t)] /
                     game.audit_costs[static_cast<size_t>(t)])
              << " audits/day\n";
  }
  std::cout << "Ordering mixture has " << result->policy.orderings.size()
            << " pure orderings.\n";
  return 0;
}
