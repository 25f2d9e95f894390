#ifndef AUDIT_GAME_CORE_GAME_H_
#define AUDIT_GAME_CORE_GAME_H_

#include <string>
#include <vector>

#include "prob/count_distribution.h"
#include "util/status.h"

namespace auditgame::util {
class Serializer;
}  // namespace auditgame::util

namespace auditgame::core {

/// How attacking one particular victim looks to one adversary: the chance
/// each alert type is raised, and the adversary's economics.
///
/// The adversary's expected utility under per-type audit probabilities
/// Pal (Eq. 2 and 3 of the paper, with the penalty applied negatively; see
/// docs/DESIGN.md "Calibration notes"):
///   Pat = sum_t type_probs[t] * Pal[t]
///   Ua  = -Pat * penalty + (1 - Pat) * benefit - attack_cost.
struct VictimProfile {
  /// P^t_ev for each alert type; entries sum to at most 1, the remainder
  /// being the probability that no alert is raised.
  std::vector<double> type_probs;
  /// R<e,v>: gain when the attack goes unaudited.
  double benefit = 0.0;
  /// M<e,v> >= 0: penalty magnitude when the attack is audited.
  double penalty = 0.0;
  /// K<e,v>: cost of mounting the attack, always paid.
  double attack_cost = 0.0;

  void StreamState(util::Serializer& s);
};

/// A potential adversary e: present with probability `attack_probability`
/// (the paper's p_e) and free to pick any victim in `victims`, or to refrain
/// entirely when `can_opt_out` (utility 0).
struct Adversary {
  double attack_probability = 1.0;
  std::vector<VictimProfile> victims;
  bool can_opt_out = false;

  void StreamState(util::Serializer& s);
};

/// A complete instance of the alert-prioritization game (everything except
/// the audit budget B, which the experiments sweep).
struct GameInstance {
  std::vector<std::string> type_names;
  /// C_t: cost of auditing one alert of type t.
  std::vector<double> audit_costs;
  /// F_t: benign alert-count distribution per type.
  std::vector<prob::CountDistribution> alert_distributions;
  std::vector<Adversary> adversaries;

  int num_types() const { return static_cast<int>(audit_costs.size()); }

  /// Checks internal consistency (sizes, probability ranges, positivity).
  util::Status Validate() const;

  void StreamState(util::Serializer& s);
};

/// ---- Compiled form -------------------------------------------------------
///
/// The LP only sees each adversary through the *set* of utility rows their
/// victims induce. Compiling (1) deduplicates identical victims within an
/// adversary, (2) merges adversaries with identical victim sets into
/// weighted groups and (3) marks each group's *envelope*: the victims no
/// other victim of the group dominates. On the paper's Rea A instance (1)
/// and (2) shrink the LP from 2500 rows to a few dozen without changing its
/// optimum; (3) drops the rows the envelope implies (docs/DESIGN.md "The
/// incremental master").

struct AdversaryGroup {
  /// Sum of attack probabilities p_e over the merged adversaries.
  double weight = 0.0;
  bool can_opt_out = false;
  std::vector<VictimProfile> victims;
  /// Ascending indices into `victims` of the rows the master LP builds. A
  /// victim w dominates v when their type_probs are bitwise equal (so both
  /// share Pat under every Pal), Ua_w >= Ua_v at Pat = 0 and at Pat = 1
  /// (so everywhere between, Ua being affine in Pat), and w is strictly
  /// better at one end or, tying at both, has the lower index. Dominated
  /// victims are left out; `victims` itself keeps every victim, so best
  /// response, quantal response and policy evaluation see the full group.
  std::vector<int> envelope;
  /// Indices of the original adversaries merged into this group.
  std::vector<int> members;
};

struct CompiledGame {
  int num_types = 0;
  std::vector<AdversaryGroup> groups;

  /// Total number of (group, victim) utility rows.
  int num_rows() const;
  /// Number of those rows on the groups' envelopes (the master LP's rows).
  int num_envelope_rows() const;
};

/// Compiles `instance`; requires Validate() to pass.
util::StatusOr<CompiledGame> Compile(const GameInstance& instance);

/// The envelope victims' utilities as one linear form in Pal. Row r is the
/// r-th envelope victim, groups in order and each group's envelope
/// ascending (the master LP's row order):
///   Ua = constant(r) - slope(r) . Pal,
/// with slope(r) = (M + R) * type_probs and constant(r) = R - K. Each
/// master LP builds its own (RestrictedMasterLp::utility_rows) instead of
/// the CompiledGame keeping them: every tenant's AuditService keeps one
/// compiled game, and the rows would grow every one of them.
class UtilityRows {
 public:
  explicit UtilityRows(const CompiledGame& game);

  double constant(size_t r) const { return rows_[r * stride_]; }
  /// num_types entries.
  const double* slope(size_t r) const {
    return rows_.data() + r * stride_ + 1;
  }

 private:
  size_t stride_ = 1;  // 1 + num_types: the constant, then the slope
  std::vector<double> rows_;
};

/// Ua for one victim under per-type detection probabilities `pal`. The
/// Pal-weighted attack probability reduces through the canonical kernel dot
/// (math/kernels.h), so the value is bit-identical in any kernel backend.
/// The pointer form serves hot loops over raw Pal buffers; `pal`
/// must hold one entry per type in `victim.type_probs`.
double AdversaryUtility(const VictimProfile& victim, const double* pal);
double AdversaryUtility(const VictimProfile& victim,
                        const std::vector<double>& pal);

}  // namespace auditgame::core

#endif  // AUDIT_GAME_CORE_GAME_H_
