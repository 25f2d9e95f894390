#ifndef AUDIT_GAME_ADVERSARY_LOOP_H_
#define AUDIT_GAME_ADVERSARY_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/attacker.h"
#include "core/game.h"
#include "net/client.h"
#include "server/binary_codec.h"
#include "server/request_window.h"
#include "service/audit_service.h"
#include "solver/solver.h"
#include "util/statusor.h"

namespace auditgame::adversary {

/// The closed Stackelberg loop: each audit cycle the attacker shifts the
/// alert stream toward the least-audited types, the defender ingests it and
/// serves a (cached / warm / cold) policy, the attacker observes that
/// policy's mixed detection probabilities and adapts again. The loop
/// measures the paper-relevant robustness numbers — per-cycle defender
/// regret against an exact re-solve, the attacker's exploitability gap, and
/// how many cycles warm re-solves lag behind the adversary.
///
/// Because the adversary utility (Eq. 3) is linear in the per-type
/// detection probabilities, the defender's true loss under any policy is a
/// function of its mixed Pal vector alone (see DefenderLossAtDetection).
/// That is what makes the remote loop work: the server reports one Pal
/// vector per policy (the `observe_policy` protocol extension) and the
/// loop evaluates losses locally, without shipping orderings.

/// The defender-side solve configuration the loop shares between the live
/// defender and its exact oracle, so "regret" compares like with like.
struct DefenderConfig {
  std::string solver = "ishm-cggs";
  solver::SolverOptions solver_options;
  core::DetectionModel::Options detection_options;
  double budget = 10.0;
  double warm_start_max_drift = 0.25;
  int warm_subset_cap = 1;
};

/// What the defender revealed after one cycle.
struct DefenderObservation {
  int64_t cycle = 0;
  std::string source;  // "cache" | "warm" | "cold"
  double drift = 0.0;
  double objective = 0.0;
  /// Mixed per-type detection probabilities of the served policy under the
  /// cycle's (current) distributions.
  std::vector<double> detection;
  double seconds = 0.0;
};

/// The loop's seam over "where does the defender run": in this process or
/// behind a live audit_server.
class DefenderClient {
 public:
  virtual ~DefenderClient() = default;

  virtual util::Status Ingest(
      const std::vector<prob::CountDistribution>& distributions) = 0;

  virtual util::StatusOr<DefenderObservation> SolveCycle() = 0;
};

/// Defender embedded in-process: an AuditService serving one budget.
class InProcessDefender : public DefenderClient {
 public:
  InProcessDefender(core::GameInstance instance, const DefenderConfig& config);

  util::Status Ingest(
      const std::vector<prob::CountDistribution>& distributions) override;
  util::StatusOr<DefenderObservation> SolveCycle() override;

  const service::AuditService& service() const { return service_; }

 private:
  service::AuditService service_;
};

/// Defender behind a live audit_server, driven over one FrameClient
/// (borrowed; one RemoteDefender per connection per thread) through a
/// server::RequestWindow of one. `overloaded` and `backend_down` responses
/// are the server's backpressure contract — nothing was applied — so the
/// window re-sends them after a small sit-out instead of failing.
class RemoteDefender : public DefenderClient {
 public:
  RemoteDefender(net::FrameClient* client, std::string tenant,
                 int max_retries = 200, int retry_backoff_ms = 5);

  util::Status Ingest(
      const std::vector<prob::CountDistribution>& distributions) override;
  util::StatusOr<DefenderObservation> SolveCycle() override;

 private:
  /// One verb round trip; the `ok` response.
  util::StatusOr<server::BinaryResponse> Call(int64_t id,
                                              std::string payload);

  server::RequestWindow window_;
  std::string tenant_;
  int64_t next_id_ = 1;
};

/// The defender's expected loss (the paper's Eq. 4 objective) under mixed
/// per-type detection probabilities `pal`: each compiled adversary group
/// best-responds over its victims (opt-out groups clamp at 0), weighted by
/// group weight. Equal to core::EvaluatePolicy's auditor_loss by linearity
/// of the adversary utility in Pal.
double DefenderLossAtDetection(const core::CompiledGame& game,
                               const std::vector<double>& pal);

struct CycleMetrics {
  int cycle = 0;
  std::string source;
  double drift = 0.0;
  /// Defender loss of the served policy on this cycle's distributions.
  double served_loss = 0.0;
  /// Loss of an exact cold re-solve on the same distributions (0 when the
  /// oracle is disabled).
  double oracle_loss = 0.0;
  /// max(0, served_loss - oracle_loss).
  double regret_gap = 0.0;
  /// max(0, best-attack utility vs served - best-attack utility vs oracle).
  double exploitability_gap = 0.0;
  /// The attacker's best single-type attack utility against the served
  /// policy (its incentive to keep attacking).
  double best_attack_utility = 0.0;
  /// served_loss - oracle_loss <= max(floor, |oracle_loss|): within 2x of
  /// the exact-solver floor for positive losses.
  bool within_2x = true;
  /// regret_gap exceeded the lag tolerance this cycle.
  bool lagging = false;
  double defender_seconds = 0.0;
};

struct LoopReport {
  std::vector<CycleMetrics> cycles;
  int64_t cache_hits = 0;
  int64_t warm_solves = 0;
  int64_t cold_solves = 0;
  double regret_gap_mean = 0.0;
  double regret_gap_max = 0.0;
  double exploitability_gap_mean = 0.0;
  double exploitability_gap_max = 0.0;
  double served_loss_mean = 0.0;
  double oracle_loss_mean = 0.0;
  /// Longest run of consecutive lagging cycles.
  int tracking_lag_max_cycles = 0;
  /// Every cycle stayed within 2x of the exact-solver floor.
  bool tracking_within_2x = true;
  double defender_seconds_total = 0.0;
  double oracle_seconds_total = 0.0;
};

struct LoopSpec {
  int cycles = 20;
  /// Cold-re-solve oracle each cycle (the regret/exploitability reference).
  /// Costs one exact solve per cycle; disable for load-only drills.
  bool compute_oracle = true;
  /// Absolute slack under which losses count as equal.
  double tolerance_floor = 1e-9;
  /// A cycle lags when regret_gap > max(tolerance_floor,
  /// lag_tolerance * |oracle_loss|).
  double lag_tolerance = 0.05;
};

/// Scores one served cycle and appends it to `report.cycles` (numbered
/// from 1 in scoring order): the per-cycle step AdversaryLoop::Run shares
/// with tools/adversary_replay's burst drill. `instance` holds the cycle's
/// alert distributions — the ground truth of the loss evaluations and of
/// the exact cold re-solve `spec.compute_oracle` asks for; `compiled` and
/// `economics` are derived from the same game.
util::Status ScoreCycle(const core::GameInstance& instance,
                        const core::CompiledGame& compiled,
                        const AttackerEconomics& economics,
                        const DefenderConfig& config, const LoopSpec& spec,
                        const DefenderObservation& observation,
                        LoopReport& report);

/// Folds `report.cycles` into the report's counts, means, maxima and
/// tracking verdicts; call it once, after the last ScoreCycle.
void SummarizeLoop(LoopReport& report);

/// Runs the closed loop. The loop owns a copy of the instance whose
/// alert_distributions it swaps to the attacker's stream each cycle — the
/// ground truth its oracle solves and its loss evaluations use. With a
/// RemoteDefender the server decodes its own copy of the same
/// distributions; pmf renormalization perturbs them by ULPs, so remote and
/// in-process metrics agree to ~1e-6, not bit-for-bit.
class AdversaryLoop {
 public:
  static util::StatusOr<AdversaryLoop> Create(core::GameInstance instance,
                                              const DefenderConfig& config,
                                              DefenderClient* defender,
                                              Attacker* attacker);

  util::StatusOr<LoopReport> Run(const LoopSpec& spec);

 private:
  AdversaryLoop(core::GameInstance instance, core::CompiledGame compiled,
                AttackerEconomics economics, const DefenderConfig& config,
                DefenderClient* defender, Attacker* attacker);

  core::GameInstance instance_;
  core::CompiledGame compiled_;
  AttackerEconomics economics_;
  DefenderConfig config_;
  DefenderClient* defender_;
  Attacker* attacker_;
};

}  // namespace auditgame::adversary

#endif  // AUDIT_GAME_ADVERSARY_LOOP_H_
