#ifndef AUDIT_GAME_ADVERSARY_ATTACKER_H_
#define AUDIT_GAME_ADVERSARY_ATTACKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/game.h"
#include "prob/count_distribution.h"
#include "util/statusor.h"

namespace auditgame::adversary {

/// Strategic attacker models that close the Stackelberg loop: the defender
/// commits to an audit policy, the attacker observes the policy's mixed
/// per-type detection probabilities (Pal) and shifts its activity — here,
/// the alert mass it injects into each type's count distribution — toward
/// the least-audited types. Every model is a deterministic function of its
/// spec and observation history, so closed-loop replays are reproducible
/// bit for bit (attacker_test enforces this).
enum class AttackerKind {
  /// Exact best response: all attack mass on the single type with the
  /// highest attack utility under the observed Pal (ties break to the
  /// lowest type index); no attack at all when every type's utility is
  /// non-positive.
  kBestResponse,
  /// Quantal response (bounded rationality): attack mass proportional to
  /// softmax(lambda * U_t). lambda -> infinity recovers the best response,
  /// lambda = 0 attacks uniformly.
  kQuantalResponse,
  /// Fictitious play: best response against the *empirical average* of all
  /// observed Pal vectors, the classic smoothed learning dynamic — its
  /// target moves slowly, so it is the friendliest adversary for warm
  /// re-solves to track.
  kFictitiousPlay,
};

/// Parses "best-response" / "quantal" / "fictitious" (the adversary_replay
/// flag values).
util::StatusOr<AttackerKind> AttackerKindFromName(const std::string& name);

const char* AttackerKindName(AttackerKind kind);

/// Per-type attack economics the attacker reasons with: attacking "through"
/// type t (picking a victim whose alert lands in type t) pays
///   U_t = -Pal[t] * penalties[t] + (1 - Pal[t]) * benefits[t] - costs[t],
/// the paper's Eq. 3 specialized to a single-type victim profile.
struct AttackerEconomics {
  std::vector<double> benefits;
  std::vector<double> penalties;
  std::vector<double> attack_costs;

  int num_types() const { return static_cast<int>(benefits.size()); }
};

/// Derives per-type economics from a game instance: each type's parameters
/// are the type_probs-weighted means over every (adversary, victim) profile
/// that can raise that type, falling back to the global victim means for
/// types no victim reaches. This is the attacker-eye summary of the game's
/// utility structure.
util::StatusOr<AttackerEconomics> DeriveEconomics(
    const core::GameInstance& instance);

/// U_t for every type under the observed mixed detection probabilities.
/// Routed through core::AdversaryUtility with a unit type_probs vector, so
/// the numbers agree exactly with the solver-side policy evaluation.
std::vector<double> PerTypeAttackUtilities(const AttackerEconomics& economics,
                                           const std::vector<double>& pal);

/// U of the single best attack under `pal`, clamped at 0 (the attacker can
/// always refrain): max(0, max_t U_t). The exploitability measure.
double BestAttackUtility(const AttackerEconomics& economics,
                         const std::vector<double>& pal);

struct AttackerSpec {
  AttackerKind kind = AttackerKind::kBestResponse;
  /// Exponential-tilt scale applied to a type receiving full attack mass
  /// (see scenario::ExponentialTilt); per-type tilt is attack_rate * w_t.
  double attack_rate = 0.6;
  /// Quantal-response rationality.
  double lambda = 4.0;
};

/// One attacker driving one tenant's alert stream. NextCycle() maps the
/// defender's last served policy (its mixed per-type Pal; empty on the
/// first cycle, before anything was observed) to the per-type alert-count
/// distributions the defender will ingest next cycle. Implementations are
/// single-threaded and deterministic.
class Attacker {
 public:
  virtual ~Attacker() = default;

  virtual std::string_view Name() const = 0;

  virtual util::StatusOr<std::vector<prob::CountDistribution>> NextCycle(
      const std::vector<double>& observed_detection) = 0;

  /// The attack-mass allocation (w_t, in [0, 1]) behind the most recent
  /// NextCycle(); all zeros before the first call or when not attacking.
  virtual const std::vector<double>& last_allocation() const = 0;
};

/// Builds the requested model over a baseline alert stream (the benign
/// distributions the attack mass is injected on top of).
util::StatusOr<std::unique_ptr<Attacker>> MakeAttacker(
    const AttackerSpec& spec, std::vector<prob::CountDistribution> baseline,
    AttackerEconomics economics);

}  // namespace auditgame::adversary

#endif  // AUDIT_GAME_ADVERSARY_ATTACKER_H_
