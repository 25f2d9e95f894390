#include "core/game.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "math/kernels.h"
#include "util/serializer.h"

namespace auditgame::core {
namespace {

// Byte-exact serialization of a victim profile, used for deduplication.
// Victims built from the same parameters are bitwise identical, which is
// the only case we need to collapse.
std::string VictimKey(const VictimProfile& v) {
  std::string key;
  key.reserve(sizeof(double) * (v.type_probs.size() + 3));
  auto append = [&key](double d) {
    char buf[sizeof(double)];
    std::memcpy(buf, &d, sizeof(double));
    key.append(buf, sizeof(double));
  };
  for (double p : v.type_probs) append(p);
  append(v.benefit);
  append(v.penalty);
  append(v.attack_cost);
  return key;
}

// The envelope of a group's victims (AdversaryGroup::envelope). Sorting by
// (type_probs bytes, Ua at Pat = 0 descending, Ua at Pat = 1 descending,
// index) places every dominator of a victim before it within its
// type_probs run, so one sweep that tracks the run's best Pat = 1 utility
// finds the undominated victims in O(V log V).
std::vector<int> Envelope(const std::vector<VictimProfile>& victims) {
  const auto types_cmp = [&victims](int a, int b) {
    const auto& pa = victims[static_cast<size_t>(a)].type_probs;
    const auto& pb = victims[static_cast<size_t>(b)].type_probs;
    return std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double));
  };
  const auto at_zero = [&victims](int v) {
    const VictimProfile& p = victims[static_cast<size_t>(v)];
    return p.benefit - p.attack_cost;
  };
  const auto at_one = [&victims](int v) {
    const VictimProfile& p = victims[static_cast<size_t>(v)];
    return -p.penalty - p.attack_cost;
  };
  std::vector<int> order(victims.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (const int c = types_cmp(a, b); c != 0) return c < 0;
    if (at_zero(a) != at_zero(b)) return at_zero(a) > at_zero(b);
    if (at_one(a) != at_one(b)) return at_one(a) > at_one(b);
    return a < b;
  });
  std::vector<int> envelope;
  double best_at_one = 0.0;
  for (size_t k = 0; k < order.size(); ++k) {
    const int v = order[k];
    if (k == 0 || types_cmp(order[k - 1], v) != 0 || at_one(v) > best_at_one) {
      envelope.push_back(v);
      best_at_one = at_one(v);
    }
  }
  std::sort(envelope.begin(), envelope.end());
  return envelope;
}

}  // namespace

util::Status GameInstance::Validate() const {
  const int t = num_types();
  if (t == 0) return util::InvalidArgumentError("no alert types");
  if (static_cast<int>(type_names.size()) != t) {
    return util::InvalidArgumentError("type_names size mismatch");
  }
  if (static_cast<int>(alert_distributions.size()) != t) {
    return util::InvalidArgumentError("alert_distributions size mismatch");
  }
  for (double c : audit_costs) {
    if (!(c > 0) || !std::isfinite(c)) {
      return util::InvalidArgumentError("audit costs must be positive");
    }
  }
  if (adversaries.empty()) {
    return util::InvalidArgumentError("no adversaries");
  }
  for (size_t e = 0; e < adversaries.size(); ++e) {
    const Adversary& adv = adversaries[e];
    if (adv.attack_probability < 0 || adv.attack_probability > 1) {
      return util::InvalidArgumentError("p_e out of [0,1] for adversary " +
                                        std::to_string(e));
    }
    if (adv.victims.empty() && !adv.can_opt_out) {
      return util::InvalidArgumentError("adversary " + std::to_string(e) +
                                        " has no victims and no opt-out");
    }
    for (const VictimProfile& v : adv.victims) {
      if (static_cast<int>(v.type_probs.size()) != t) {
        return util::InvalidArgumentError("victim type_probs size mismatch");
      }
      double total = 0.0;
      for (double p : v.type_probs) {
        if (p < 0 || p > 1 || !std::isfinite(p)) {
          return util::InvalidArgumentError("victim type prob out of range");
        }
        total += p;
      }
      if (total > 1.0 + 1e-9) {
        return util::InvalidArgumentError("victim type probs sum > 1");
      }
      if (v.penalty < 0) {
        return util::InvalidArgumentError(
            "penalty must be a non-negative magnitude");
      }
      if (!std::isfinite(v.benefit) || !std::isfinite(v.attack_cost)) {
        return util::InvalidArgumentError("non-finite victim economics");
      }
    }
  }
  return util::OkStatus();
}

int CompiledGame::num_rows() const {
  int rows = 0;
  for (const auto& g : groups) rows += static_cast<int>(g.victims.size());
  return rows;
}

int CompiledGame::num_envelope_rows() const {
  int rows = 0;
  for (const auto& g : groups) rows += static_cast<int>(g.envelope.size());
  return rows;
}

util::StatusOr<CompiledGame> Compile(const GameInstance& instance) {
  RETURN_IF_ERROR(instance.Validate());
  CompiledGame compiled;
  compiled.num_types = instance.num_types();

  // Group signature -> group index.
  std::map<std::string, int> group_index;
  for (size_t e = 0; e < instance.adversaries.size(); ++e) {
    const Adversary& adv = instance.adversaries[e];
    if (adv.attack_probability == 0.0) continue;  // never attacks

    // Canonical, deduplicated victim set.
    std::map<std::string, const VictimProfile*> dedup;
    for (const VictimProfile& v : adv.victims) dedup.emplace(VictimKey(v), &v);

    std::string signature = adv.can_opt_out ? "O" : "A";
    for (const auto& [key, victim] : dedup) signature += key;

    auto [it, inserted] =
        group_index.emplace(signature, static_cast<int>(compiled.groups.size()));
    if (inserted) {
      AdversaryGroup group;
      group.can_opt_out = adv.can_opt_out;
      for (const auto& [key, victim] : dedup) group.victims.push_back(*victim);
      compiled.groups.push_back(std::move(group));
    }
    AdversaryGroup& group = compiled.groups[it->second];
    group.weight += adv.attack_probability;
    group.members.push_back(static_cast<int>(e));
  }
  if (compiled.groups.empty()) {
    return util::InvalidArgumentError("all adversaries have p_e = 0");
  }
  for (AdversaryGroup& group : compiled.groups) {
    group.envelope = Envelope(group.victims);
  }
  return compiled;
}

UtilityRows::UtilityRows(const CompiledGame& game)
    : stride_(1 + static_cast<size_t>(game.num_types)) {
  rows_.reserve(static_cast<size_t>(game.num_envelope_rows()) * stride_);
  for (const AdversaryGroup& group : game.groups) {
    for (const int v : group.envelope) {
      const VictimProfile& victim = group.victims[static_cast<size_t>(v)];
      rows_.push_back(victim.benefit - victim.attack_cost);
      const double scale = victim.penalty + victim.benefit;
      for (const double p : victim.type_probs) rows_.push_back(scale * p);
    }
  }
}

double AdversaryUtility(const VictimProfile& victim, const double* pal) {
  const double pat =
      math::Dot(victim.type_probs.data(), pal, victim.type_probs.size());
  return -pat * victim.penalty + (1.0 - pat) * victim.benefit -
         victim.attack_cost;
}

double AdversaryUtility(const VictimProfile& victim,
                        const std::vector<double>& pal) {
  return AdversaryUtility(victim, pal.data());
}

void VictimProfile::StreamState(util::Serializer& s) {
  s.Section("victim", 1);
  s.VecF64(type_probs);
  s.F64(benefit);
  s.F64(penalty);
  s.F64(attack_cost);
}

void Adversary::StreamState(util::Serializer& s) {
  s.Section("adversary", 1);
  s.F64(attack_probability);
  s.VecObj(victims);
  s.Bool(can_opt_out);
}

void GameInstance::StreamState(util::Serializer& s) {
  s.Section("game", 1);
  s.VecStr(type_names);
  s.VecF64(audit_costs);
  s.VecObj(alert_distributions);
  s.VecObj(adversaries);
  if (s.reading() && s.ok()) {
    util::Status valid = Validate();
    if (!valid.ok()) s.Fail(std::move(valid));
  }
}

}  // namespace auditgame::core
