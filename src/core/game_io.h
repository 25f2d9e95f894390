#ifndef AUDIT_GAME_CORE_GAME_IO_H_
#define AUDIT_GAME_CORE_GAME_IO_H_

#include <string>

#include "core/game.h"
#include "core/policy.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::core {

/// JSON (de)serialization of game instances and audit policies, so the
/// solver can be driven by configuration files (see tools/solve_policy).
///
/// Game schema:
/// {
///   "types": [
///     { "name": "...", "audit_cost": 1.0,
///       "counts": { "kind": "gaussian", "mean": 6, "stddev": 2,
///                   "min": 1, "max": 11 }          // or
///       "counts": { "kind": "pmf", "min": 3, "pmf": [0.25, 0.5, 0.25] } }
///   ],
///   "adversaries": [
///     { "attack_probability": 1.0, "can_opt_out": true,
///       "victims": [
///         { "type_probs": [1, 0], "benefit": 4.0, "penalty": 2.0,
///           "attack_cost": 1.0 } ] } ]
/// }
util::JsonValue GameToJson(const GameInstance& instance);
util::StatusOr<GameInstance> GameFromJson(const util::JsonValue& json);

/// Convenience round trips through text.
util::StatusOr<GameInstance> ParseGame(const std::string& json_text);
std::string SerializeGame(const GameInstance& instance, int indent = 2);

/// Deterministic 128-bit content fingerprint of a game instance: two
/// instances fingerprint equal iff their types, audit costs, alert-count
/// distributions and adversaries are identical (field-for-field, exact
/// double bits — the serving layer treats any distribution drift, however
/// small, as a different instance). Stable across processes and platforms;
/// the serving layer keys its policy cache on this (see
/// service/policy_cache.h).
util::Fingerprint FingerprintGame(const GameInstance& instance);
/// FingerprintGame() of `base` with `alert_distributions` (one per type) in
/// place of its own, bit for bit: a service that shares its base instance
/// keys its cache without assembling the whole instance.
util::Fingerprint FingerprintGame(
    const GameInstance& base,
    const std::vector<prob::CountDistribution>& alert_distributions);

/// Policy schema: { "budget", "thresholds": [...],
///                  "orderings": [[...]], "probabilities": [...] }.
util::JsonValue PolicyToJson(const AuditPolicy& policy);
util::StatusOr<AuditPolicy> PolicyFromJson(const util::JsonValue& json);
util::StatusOr<AuditPolicy> ParsePolicy(const std::string& json_text);
std::string SerializePolicy(const AuditPolicy& policy, int indent = 2);

}  // namespace auditgame::core

#endif  // AUDIT_GAME_CORE_GAME_IO_H_
