#include "core/game_io.h"

#include <cmath>

namespace auditgame::core {

using util::JsonValue;

namespace {

JsonValue DistributionToJson(const prob::CountDistribution& dist) {
  // Serialize as an explicit pmf: lossless for every construction.
  JsonValue::Object counts;
  counts["kind"] = JsonValue("pmf");
  counts["min"] = JsonValue(dist.min_value());
  JsonValue::Array pmf;
  for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
    pmf.push_back(JsonValue(dist.Pmf(z)));
  }
  counts["pmf"] = JsonValue(std::move(pmf));
  return JsonValue(std::move(counts));
}

util::StatusOr<prob::CountDistribution> DistributionFromJson(
    const JsonValue& json) {
  ASSIGN_OR_RETURN(std::string kind, json.GetString("kind"));
  if (kind == "pmf") {
    ASSIGN_OR_RETURN(double min_value, json.GetNumber("min"));
    const JsonValue* pmf_json = json.Find("pmf");
    if (pmf_json == nullptr || !pmf_json->is_array()) {
      return util::InvalidArgumentError("pmf distribution needs a 'pmf' array");
    }
    std::vector<double> pmf;
    for (const JsonValue& p : pmf_json->as_array()) {
      if (!p.is_number()) {
        return util::InvalidArgumentError("pmf entries must be numbers");
      }
      pmf.push_back(p.as_number());
    }
    return prob::CountDistribution::FromPmf(static_cast<int>(min_value),
                                            std::move(pmf));
  }
  if (kind == "gaussian") {
    ASSIGN_OR_RETURN(double mean, json.GetNumber("mean"));
    ASSIGN_OR_RETURN(double stddev, json.GetNumber("stddev"));
    const JsonValue* min_json = json.Find("min");
    const JsonValue* max_json = json.Find("max");
    if (min_json != nullptr && max_json != nullptr) {
      if (!min_json->is_number() || !max_json->is_number()) {
        return util::InvalidArgumentError("gaussian min/max must be numbers");
      }
      return prob::CountDistribution::DiscretizedGaussian(
          mean, stddev, static_cast<int>(min_json->as_number()),
          static_cast<int>(max_json->as_number()));
    }
    double coverage = 0.995;
    if (const JsonValue* c = json.Find("coverage"); c != nullptr) {
      if (!c->is_number()) {
        return util::InvalidArgumentError("coverage must be a number");
      }
      coverage = c->as_number();
    }
    return prob::CountDistribution::DiscretizedGaussianWithCoverage(
        mean, stddev, coverage);
  }
  if (kind == "poisson") {
    ASSIGN_OR_RETURN(double lambda, json.GetNumber("lambda"));
    return prob::CountDistribution::TruncatedPoisson(lambda);
  }
  if (kind == "constant") {
    ASSIGN_OR_RETURN(double value, json.GetNumber("value"));
    return prob::CountDistribution::Constant(static_cast<int>(value));
  }
  return util::InvalidArgumentError("unknown distribution kind '" + kind + "'");
}

}  // namespace

JsonValue GameToJson(const GameInstance& instance) {
  JsonValue::Object root;
  JsonValue::Array types;
  for (int t = 0; t < instance.num_types(); ++t) {
    JsonValue::Object type;
    type["name"] = JsonValue(instance.type_names[static_cast<size_t>(t)]);
    type["audit_cost"] =
        JsonValue(instance.audit_costs[static_cast<size_t>(t)]);
    type["counts"] =
        DistributionToJson(instance.alert_distributions[static_cast<size_t>(t)]);
    types.push_back(JsonValue(std::move(type)));
  }
  root["types"] = JsonValue(std::move(types));

  JsonValue::Array adversaries;
  for (const Adversary& adversary : instance.adversaries) {
    JsonValue::Object a;
    a["attack_probability"] = JsonValue(adversary.attack_probability);
    a["can_opt_out"] = JsonValue(adversary.can_opt_out);
    JsonValue::Array victims;
    for (const VictimProfile& victim : adversary.victims) {
      JsonValue::Object v;
      JsonValue::Array probs;
      for (double p : victim.type_probs) probs.push_back(JsonValue(p));
      v["type_probs"] = JsonValue(std::move(probs));
      v["benefit"] = JsonValue(victim.benefit);
      v["penalty"] = JsonValue(victim.penalty);
      v["attack_cost"] = JsonValue(victim.attack_cost);
      victims.push_back(JsonValue(std::move(v)));
    }
    a["victims"] = JsonValue(std::move(victims));
    adversaries.push_back(JsonValue(std::move(a)));
  }
  root["adversaries"] = JsonValue(std::move(adversaries));
  return JsonValue(std::move(root));
}

util::StatusOr<GameInstance> GameFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return util::InvalidArgumentError("game JSON must be an object");
  }
  GameInstance instance;
  const JsonValue* types = json.Find("types");
  if (types == nullptr || !types->is_array() || types->as_array().empty()) {
    return util::InvalidArgumentError("game needs a non-empty 'types' array");
  }
  for (const JsonValue& type : types->as_array()) {
    ASSIGN_OR_RETURN(std::string name, type.GetString("name"));
    ASSIGN_OR_RETURN(double audit_cost, type.GetNumber("audit_cost"));
    const JsonValue* counts = type.Find("counts");
    if (counts == nullptr) {
      return util::InvalidArgumentError("type '" + name + "' needs 'counts'");
    }
    ASSIGN_OR_RETURN(prob::CountDistribution dist,
                     DistributionFromJson(*counts));
    instance.type_names.push_back(std::move(name));
    instance.audit_costs.push_back(audit_cost);
    instance.alert_distributions.push_back(std::move(dist));
  }

  const JsonValue* adversaries = json.Find("adversaries");
  if (adversaries == nullptr || !adversaries->is_array()) {
    return util::InvalidArgumentError("game needs an 'adversaries' array");
  }
  for (const JsonValue& a : adversaries->as_array()) {
    Adversary adversary;
    ASSIGN_OR_RETURN(adversary.attack_probability,
                     a.GetNumber("attack_probability"));
    if (const JsonValue* opt = a.Find("can_opt_out"); opt != nullptr) {
      if (!opt->is_bool()) {
        return util::InvalidArgumentError("can_opt_out must be a bool");
      }
      adversary.can_opt_out = opt->as_bool();
    }
    const JsonValue* victims = a.Find("victims");
    if (victims == nullptr || !victims->is_array()) {
      return util::InvalidArgumentError("adversary needs a 'victims' array");
    }
    for (const JsonValue& v : victims->as_array()) {
      VictimProfile victim;
      const JsonValue* probs = v.Find("type_probs");
      if (probs == nullptr || !probs->is_array()) {
        return util::InvalidArgumentError("victim needs 'type_probs'");
      }
      for (const JsonValue& p : probs->as_array()) {
        if (!p.is_number()) {
          return util::InvalidArgumentError("type_probs must be numbers");
        }
        victim.type_probs.push_back(p.as_number());
      }
      ASSIGN_OR_RETURN(victim.benefit, v.GetNumber("benefit"));
      ASSIGN_OR_RETURN(victim.penalty, v.GetNumber("penalty"));
      ASSIGN_OR_RETURN(victim.attack_cost, v.GetNumber("attack_cost"));
      adversary.victims.push_back(std::move(victim));
    }
    instance.adversaries.push_back(std::move(adversary));
  }
  RETURN_IF_ERROR(instance.Validate());
  return instance;
}

util::StatusOr<GameInstance> ParseGame(const std::string& json_text) {
  ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(json_text));
  return GameFromJson(json);
}

util::Fingerprint FingerprintGame(const GameInstance& instance) {
  util::FingerprintBuilder fp;
  fp.AppendI64(instance.num_types());
  for (int t = 0; t < instance.num_types(); ++t) {
    const auto st = static_cast<size_t>(t);
    fp.AppendString(instance.type_names[st]);
    fp.AppendDouble(instance.audit_costs[st]);
    const prob::CountDistribution& dist = instance.alert_distributions[st];
    fp.AppendI64(dist.min_value());
    fp.AppendI64(dist.support_size());
    for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
      fp.AppendDouble(dist.Pmf(z));
    }
  }
  fp.AppendI64(static_cast<int64_t>(instance.adversaries.size()));
  for (const Adversary& adversary : instance.adversaries) {
    fp.AppendDouble(adversary.attack_probability);
    fp.AppendU64(adversary.can_opt_out ? 1 : 0);
    fp.AppendI64(static_cast<int64_t>(adversary.victims.size()));
    for (const VictimProfile& victim : adversary.victims) {
      fp.AppendI64(static_cast<int64_t>(victim.type_probs.size()));
      for (double p : victim.type_probs) fp.AppendDouble(p);
      fp.AppendDouble(victim.benefit);
      fp.AppendDouble(victim.penalty);
      fp.AppendDouble(victim.attack_cost);
    }
  }
  return fp.Build();
}

std::string SerializeGame(const GameInstance& instance, int indent) {
  return GameToJson(instance).Dump(indent);
}

JsonValue PolicyToJson(const AuditPolicy& policy) {
  JsonValue::Object root;
  root["budget"] = JsonValue(policy.budget);
  JsonValue::Array thresholds;
  for (double b : policy.thresholds) thresholds.push_back(JsonValue(b));
  root["thresholds"] = JsonValue(std::move(thresholds));
  JsonValue::Array orderings;
  for (const auto& o : policy.orderings) {
    JsonValue::Array ordering;
    for (int t : o) ordering.push_back(JsonValue(t));
    orderings.push_back(JsonValue(std::move(ordering)));
  }
  root["orderings"] = JsonValue(std::move(orderings));
  JsonValue::Array probabilities;
  for (double p : policy.probabilities) probabilities.push_back(JsonValue(p));
  root["probabilities"] = JsonValue(std::move(probabilities));
  return JsonValue(std::move(root));
}

util::StatusOr<AuditPolicy> PolicyFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return util::InvalidArgumentError("policy JSON must be an object");
  }
  AuditPolicy policy;
  ASSIGN_OR_RETURN(policy.budget, json.GetNumber("budget"));
  const JsonValue* thresholds = json.Find("thresholds");
  const JsonValue* orderings = json.Find("orderings");
  const JsonValue* probabilities = json.Find("probabilities");
  if (thresholds == nullptr || !thresholds->is_array() ||
      orderings == nullptr || !orderings->is_array() ||
      probabilities == nullptr || !probabilities->is_array()) {
    return util::InvalidArgumentError(
        "policy needs 'thresholds', 'orderings' and 'probabilities' arrays");
  }
  for (const JsonValue& b : thresholds->as_array()) {
    if (!b.is_number()) {
      return util::InvalidArgumentError("thresholds must be numbers");
    }
    policy.thresholds.push_back(b.as_number());
  }
  for (const JsonValue& o : orderings->as_array()) {
    if (!o.is_array()) {
      return util::InvalidArgumentError("orderings must be arrays");
    }
    std::vector<int> ordering;
    for (const JsonValue& t : o.as_array()) {
      if (!t.is_number()) {
        return util::InvalidArgumentError("ordering entries must be numbers");
      }
      ordering.push_back(static_cast<int>(t.as_number()));
    }
    policy.orderings.push_back(std::move(ordering));
  }
  for (const JsonValue& p : probabilities->as_array()) {
    if (!p.is_number()) {
      return util::InvalidArgumentError("probabilities must be numbers");
    }
    policy.probabilities.push_back(p.as_number());
  }
  RETURN_IF_ERROR(
      policy.Validate(static_cast<int>(policy.thresholds.size())));
  return policy;
}

util::StatusOr<AuditPolicy> ParsePolicy(const std::string& json_text) {
  ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(json_text));
  return PolicyFromJson(json);
}

std::string SerializePolicy(const AuditPolicy& policy, int indent) {
  return PolicyToJson(policy).Dump(indent);
}

}  // namespace auditgame::core
