#ifndef AUDIT_GAME_TESTS_TEST_UTIL_H_
#define AUDIT_GAME_TESTS_TEST_UTIL_H_

// Shared fixtures: small hand-analyzable game instances for core/ tests, and
// a command-line helper for the tools' flag parsers.

#include <string>
#include <vector>

#include "core/game.h"
#include "prob/count_distribution.h"
#include "util/flags.h"
#include "util/status.h"

namespace auditgame::testutil {

/// Parses `args` (without the program name) as a tool's command line.
inline util::Status ParseArgs(util::FlagParser& flags,
                              std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

/// A 2-type game with constant alert counts (Z = [2, 2]), unit audit costs,
/// and one adversary who can attack a type-0 victim (benefit 4), a type-1
/// victim (benefit 6), or not at all. Penalty 2, attack cost 1.
/// With constant counts the detection probabilities are exact and easy to
/// compute by hand: capacity c on a bin of 2 gives Pal = min(c, 2) / 2.
inline core::GameInstance MakeTinyGame(bool can_opt_out = true) {
  core::GameInstance instance;
  instance.type_names = {"t0", "t1"};
  instance.audit_costs = {1.0, 1.0};
  instance.alert_distributions = {prob::CountDistribution::Constant(2),
                                  prob::CountDistribution::Constant(2)};
  core::Adversary adversary;
  adversary.attack_probability = 1.0;
  adversary.can_opt_out = can_opt_out;
  core::VictimProfile v0;
  v0.type_probs = {1.0, 0.0};
  v0.benefit = 4.0;
  v0.penalty = 2.0;
  v0.attack_cost = 1.0;
  core::VictimProfile v1;
  v1.type_probs = {0.0, 1.0};
  v1.benefit = 6.0;
  v1.penalty = 2.0;
  v1.attack_cost = 1.0;
  adversary.victims = {v0, v1};
  instance.adversaries.push_back(adversary);
  return instance;
}

/// A 3-type instance with Gaussian-ish counts and several adversaries,
/// including duplicates that the compiler should merge.
inline core::GameInstance MakeMediumGame() {
  core::GameInstance instance;
  instance.type_names = {"a", "b", "c"};
  instance.audit_costs = {1.0, 1.0, 1.0};
  for (double mean : {4.0, 3.0, 5.0}) {
    instance.alert_distributions.push_back(
        *prob::CountDistribution::DiscretizedGaussian(mean, 1.0, 1,
                                                      static_cast<int>(mean) + 3));
  }
  auto make_victim = [](int type, double benefit) {
    core::VictimProfile v;
    v.type_probs = {0.0, 0.0, 0.0};
    v.type_probs[static_cast<size_t>(type)] = 1.0;
    v.benefit = benefit;
    v.penalty = 3.0;
    v.attack_cost = 0.5;
    return v;
  };
  for (int e = 0; e < 4; ++e) {
    core::Adversary adversary;
    adversary.attack_probability = 1.0;
    adversary.can_opt_out = true;
    // Adversaries 0 and 1 are identical; 2 and 3 differ.
    if (e < 2) {
      adversary.victims = {make_victim(0, 5.0), make_victim(1, 4.0)};
    } else if (e == 2) {
      adversary.victims = {make_victim(1, 4.0), make_victim(2, 6.0)};
    } else {
      adversary.victims = {make_victim(2, 6.0)};
    }
    instance.adversaries.push_back(adversary);
  }
  return instance;
}

}  // namespace auditgame::testutil

#endif  // AUDIT_GAME_TESTS_TEST_UTIL_H_
