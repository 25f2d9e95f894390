#include "adversary/loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/detection.h"
#include "core/policy.h"
#include "server/protocol.h"
#include "util/json.h"
#include "util/timer.h"

namespace auditgame::adversary {

InProcessDefender::InProcessDefender(core::GameInstance instance,
                                     const DefenderConfig& config)
    : service_(std::move(instance), [&config] {
        service::AuditServiceOptions options;
        options.solver = config.solver;
        options.solver_options = config.solver_options;
        options.detection_options = config.detection_options;
        options.budgets = {config.budget};
        options.warm_start_max_drift = config.warm_start_max_drift;
        options.warm_subset_cap = config.warm_subset_cap;
        return options;
      }()) {}

util::Status InProcessDefender::Ingest(
    const std::vector<prob::CountDistribution>& distributions) {
  return service_.UpdateAlertDistributions(distributions);
}

util::StatusOr<DefenderObservation> InProcessDefender::SolveCycle() {
  ASSIGN_OR_RETURN(service::AuditService::CycleReport report,
                   service_.RunCycle());
  if (report.policies.empty()) {
    return util::InternalError("cycle report has no policies");
  }
  const service::AuditService::CyclePolicy& policy = report.policies[0];
  DefenderObservation obs;
  obs.cycle = report.cycle;
  obs.source = server::SourceName(policy.source);
  obs.drift = policy.drift;
  obs.objective = policy.result.objective;
  ASSIGN_OR_RETURN(obs.detection, service_.MixedDetectionForPolicy(policy));
  obs.seconds = report.seconds;
  return obs;
}

RemoteDefender::RemoteDefender(net::FrameClient* client, std::string tenant,
                               int max_retries, int retry_backoff_ms)
    : window_(*client,
              [&] {
                server::RequestWindowOptions options;
                options.max_retries = max_retries;
                options.retry_backoff_ms = retry_backoff_ms;
                return options;
              }()),
      tenant_(std::move(tenant)) {}

util::StatusOr<util::JsonValue> RemoteDefender::Call(int64_t id,
                                                     std::string payload) {
  // Idempotence matters for the window's re-sends: an ingest retried after
  // `overloaded` re-sends the same distributions, and solve_cycle only
  // advances on "ok".
  window_.Submit(id, std::move(payload), /*tag=*/0);
  std::vector<server::RequestWindow::Completion> done;
  while (done.empty()) RETURN_IF_ERROR(window_.Poll(done));
  RETURN_IF_ERROR(done.front().ToStatus());
  return util::JsonValue::Parse(done.front().payload);
}

util::Status RemoteDefender::Ingest(
    const std::vector<prob::CountDistribution>& distributions) {
  const int64_t id = next_id_++;
  return Call(id, server::MakeIngestRequest(id, tenant_, distributions))
      .status();
}

util::StatusOr<DefenderObservation> RemoteDefender::SolveCycle() {
  const int64_t id = next_id_++;
  util::Timer timer;
  ASSIGN_OR_RETURN(util::JsonValue doc,
                   Call(id, server::MakeSolveCycleRequest(
                                id, tenant_, /*observe_policy=*/true)));
  const double seconds = timer.ElapsedSeconds();
  ASSIGN_OR_RETURN(server::SolveCycleReply reply,
                   server::ParseSolveCycleReply(doc));
  if (reply.policies.empty()) {
    return util::InternalError("solve_cycle reply has no policies");
  }
  server::SolveCyclePolicy& policy = reply.policies[0];
  DefenderObservation obs;
  obs.cycle = reply.cycle;
  obs.source = std::move(policy.source);
  obs.drift = policy.drift;
  obs.objective = policy.objective;
  obs.detection = std::move(policy.detection_probs);
  obs.seconds = seconds;
  return obs;
}

double DefenderLossAtDetection(const core::CompiledGame& game,
                               const std::vector<double>& pal) {
  double loss = 0.0;
  for (const core::AdversaryGroup& group : game.groups) {
    double best = group.can_opt_out
                      ? 0.0
                      : -std::numeric_limits<double>::infinity();
    for (const core::VictimProfile& victim : group.victims) {
      best = std::max(best, core::AdversaryUtility(victim, pal));
    }
    loss += group.weight * best;
  }
  return loss;
}

AdversaryLoop::AdversaryLoop(core::GameInstance instance,
                             core::CompiledGame compiled,
                             AttackerEconomics economics,
                             const DefenderConfig& config,
                             DefenderClient* defender, Attacker* attacker)
    : instance_(std::move(instance)),
      compiled_(std::move(compiled)),
      economics_(std::move(economics)),
      config_(config),
      defender_(defender),
      attacker_(attacker) {}

util::StatusOr<AdversaryLoop> AdversaryLoop::Create(
    core::GameInstance instance, const DefenderConfig& config,
    DefenderClient* defender, Attacker* attacker) {
  if (defender == nullptr || attacker == nullptr) {
    return util::InvalidArgumentError(
        "adversary loop needs a defender and an attacker");
  }
  RETURN_IF_ERROR(instance.Validate());
  // The compiled game only depends on the adversaries (not the alert
  // distributions), so one compile serves every cycle's loss evaluations.
  ASSIGN_OR_RETURN(core::CompiledGame compiled, core::Compile(instance));
  ASSIGN_OR_RETURN(AttackerEconomics economics, DeriveEconomics(instance));
  return AdversaryLoop(std::move(instance), std::move(compiled),
                       std::move(economics), config, defender, attacker);
}

util::Status ScoreCycle(const core::GameInstance& instance,
                        const core::CompiledGame& compiled,
                        const AttackerEconomics& economics,
                        const DefenderConfig& config, const LoopSpec& spec,
                        const DefenderObservation& observation,
                        LoopReport& report) {
  CycleMetrics m;
  m.cycle = static_cast<int>(report.cycles.size()) + 1;
  m.source = observation.source;
  m.drift = observation.drift;
  m.defender_seconds = observation.seconds;
  m.served_loss = DefenderLossAtDetection(compiled, observation.detection);
  m.best_attack_utility = BestAttackUtility(economics, observation.detection);

  if (spec.compute_oracle) {
    util::Timer oracle_timer;
    solver::EngineRequest request;
    request.solver = config.solver;
    request.instance = &instance;
    request.budget = config.budget;
    request.detection_options = config.detection_options;
    request.options = config.solver_options;
    ASSIGN_OR_RETURN(const solver::SolveResult oracle,
                     solver::Solve(request));
    ASSIGN_OR_RETURN(core::DetectionModel model,
                     core::DetectionModel::Create(instance, config.budget,
                                                  config.detection_options));
    ASSIGN_OR_RETURN(const std::vector<double> oracle_pal,
                     core::MixedDetectionProbabilities(model, oracle.policy));
    report.oracle_seconds_total += oracle_timer.ElapsedSeconds();
    m.oracle_loss = DefenderLossAtDetection(compiled, oracle_pal);
    m.regret_gap = std::max(0.0, m.served_loss - m.oracle_loss);
    m.exploitability_gap =
        std::max(0.0, m.best_attack_utility -
                          BestAttackUtility(economics, oracle_pal));
    // "Within 2x of the exact-solver floor": for positive losses,
    // served <= 2 * oracle; phrased additively so zero and negative
    // oracle losses keep a meaningful absolute band.
    m.within_2x = (m.served_loss - m.oracle_loss) <=
                  std::max(spec.tolerance_floor, std::abs(m.oracle_loss));
    m.lagging = m.regret_gap > std::max(spec.tolerance_floor,
                                        spec.lag_tolerance *
                                            std::abs(m.oracle_loss));
  }
  report.cycles.push_back(std::move(m));
  return util::OkStatus();
}

void SummarizeLoop(LoopReport& report) {
  double regret_sum = 0.0;
  double exploit_sum = 0.0;
  double served_sum = 0.0;
  double oracle_sum = 0.0;
  int lag_run = 0;
  for (const CycleMetrics& m : report.cycles) {
    if (m.source == "cache") {
      ++report.cache_hits;
    } else if (m.source == "warm") {
      ++report.warm_solves;
    } else {
      ++report.cold_solves;
    }
    regret_sum += m.regret_gap;
    exploit_sum += m.exploitability_gap;
    served_sum += m.served_loss;
    oracle_sum += m.oracle_loss;
    report.regret_gap_max = std::max(report.regret_gap_max, m.regret_gap);
    report.exploitability_gap_max =
        std::max(report.exploitability_gap_max, m.exploitability_gap);
    lag_run = m.lagging ? lag_run + 1 : 0;
    report.tracking_lag_max_cycles =
        std::max(report.tracking_lag_max_cycles, lag_run);
    report.tracking_within_2x = report.tracking_within_2x && m.within_2x;
    report.defender_seconds_total += m.defender_seconds;
  }
  if (report.cycles.empty()) return;
  const double n = static_cast<double>(report.cycles.size());
  report.regret_gap_mean = regret_sum / n;
  report.exploitability_gap_mean = exploit_sum / n;
  report.served_loss_mean = served_sum / n;
  report.oracle_loss_mean = oracle_sum / n;
}

util::StatusOr<LoopReport> AdversaryLoop::Run(const LoopSpec& spec) {
  if (spec.cycles <= 0) {
    return util::InvalidArgumentError("loop needs at least one cycle");
  }
  LoopReport report;
  report.cycles.reserve(static_cast<size_t>(spec.cycles));
  std::vector<double> observed;  // empty: nothing observed before cycle 1

  for (int cycle = 1; cycle <= spec.cycles; ++cycle) {
    ASSIGN_OR_RETURN(std::vector<prob::CountDistribution> stream,
                     attacker_->NextCycle(observed));
    RETURN_IF_ERROR(defender_->Ingest(stream));
    ASSIGN_OR_RETURN(DefenderObservation obs, defender_->SolveCycle());
    if (obs.detection.size() != static_cast<size_t>(instance_.num_types())) {
      return util::FailedPreconditionError(
          "defender reported no per-type detection probabilities — a remote "
          "server must honor observe_policy for the loop to close");
    }
    // Ground truth for this cycle's metrics: the stream the attacker just
    // injected (with a RemoteDefender the server holds a JSON-roundtripped
    // copy of the same thing; see the class comment on AdversaryLoop).
    instance_.alert_distributions = std::move(stream);
    RETURN_IF_ERROR(ScoreCycle(instance_, compiled_, economics_, config_,
                               spec, obs, report));
    observed = std::move(obs.detection);
  }
  SummarizeLoop(report);
  return report;
}

}  // namespace auditgame::adversary
