#include "service/audit_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/game_io.h"
#include "core/policy.h"
#include "util/serializer.h"
#include "util/timer.h"

namespace auditgame::service {

AuditService::AuditService(core::GameInstance instance,
                           AuditServiceOptions options)
    : options_(std::move(options)),
      instance_(std::move(instance)),
      cache_(options_.cache_capacity) {}

util::Status AuditService::UpdateAlertDistributions(
    std::vector<prob::CountDistribution> distributions) {
  if (static_cast<int>(distributions.size()) != instance_.num_types()) {
    return util::InvalidArgumentError(
        "alert distribution update has " +
        std::to_string(distributions.size()) + " entries for " +
        std::to_string(instance_.num_types()) + " types");
  }
  std::swap(instance_.alert_distributions, distributions);
  util::Status valid = instance_.Validate();
  if (!valid.ok()) {
    // Roll back: a rejected update must leave the service serving the
    // previous distributions.
    std::swap(instance_.alert_distributions, distributions);
    return valid;
  }
  keys_current_ = false;
  return util::OkStatus();
}

util::StatusOr<std::vector<double>> AuditService::MixedDetectionForPolicy(
    const CyclePolicy& policy) const {
  ASSIGN_OR_RETURN(core::DetectionModel model,
                   core::DetectionModel::Create(instance_, policy.budget,
                                                options_.detection_options));
  return core::MixedDetectionProbabilities(model, policy.result.policy);
}

double AuditService::MeasureDrift(
    const std::vector<prob::CountDistribution>& a,
    const std::vector<prob::CountDistribution>& b) {
  if (a.size() != b.size()) return 1.0;
  double drift = 0.0;
  for (size_t t = 0; t < a.size(); ++t) {
    drift = std::max(drift, prob::TotalVariationDistance(a[t], b[t]));
  }
  return drift;
}

solver::EngineRequest AuditService::BaseRequest(double budget) const {
  solver::EngineRequest request;
  request.solver = options_.solver;
  request.instance = &instance_;
  request.budget = budget;
  request.detection_options = options_.detection_options;
  request.options = options_.solver_options;
  return request;
}

const std::vector<util::Fingerprint>& AuditService::RequestKeys() {
  if (!keys_current_) {
    const util::Fingerprint game = core::FingerprintGame(instance_);
    request_keys_.resize(options_.budgets.size());
    for (size_t i = 0; i < options_.budgets.size(); ++i) {
      request_keys_[i] =
          FingerprintRequestForGame(game, BaseRequest(options_.budgets[i]));
    }
    keys_current_ = true;
  }
  return request_keys_;
}

util::StatusOr<AuditService::CycleReport> AuditService::RunCycle() {
  util::Timer timer;
  // Compiling also validates the instance, so an invalid game fails here,
  // before anything hashes it. A failed compile is not kept.
  if (!compiled_.has_value()) {
    ASSIGN_OR_RETURN(compiled_, core::Compile(instance_));
  }
  CycleReport report;
  report.cycle = ++cycles_run_;
  report.policies.resize(options_.budgets.size());

  // Pass 1: serve fingerprint hits from the cache; queue the rest. Every
  // request is built before any solve publishes a new warm-start baseline.
  std::vector<size_t> pending;  // the budget slot of each queued solve
  std::vector<solver::EngineRequest> to_solve;
  const std::vector<util::Fingerprint>& keys = RequestKeys();
  for (size_t i = 0; i < options_.budgets.size(); ++i) {
    const double budget = options_.budgets[i];
    const util::Fingerprint& key = keys[i];
    CyclePolicy& policy = report.policies[i];
    policy.budget = budget;

    const auto last = last_solves_.find(budget);
    // The key hashes the distributions bit for bit, so a baseline served
    // under this same key has identical ones: MeasureDrift would return
    // exactly 0.
    const bool same_key_baseline =
        last != last_solves_.end() && last->second.key == key;
    policy.drift = last == last_solves_.end() || same_key_baseline
                       ? 0.0
                       : MeasureDrift(last->second.distributions,
                                      instance_.alert_distributions);

    if (std::optional<solver::SolveResult> cached = cache_.Lookup(key)) {
      policy.source = Source::kCache;
      ++served_from_cache_;
      policy.result = *std::move(cached);
      // The served policy becomes the drift baseline and warm seed for the
      // next cycle, exactly as if it had been re-solved. A same-key
      // baseline already holds it.
      if (!same_key_baseline) {
        last_solves_[budget] =
            LastSolve{instance_.alert_distributions, policy.result, key};
      }
      continue;
    }

    solver::EngineRequest request = BaseRequest(budget);
    // warm_start_max_drift = 0 disables warm solves outright (the
    // documented only-cold-results-cached mode) — without the > 0 guard a
    // zero-drift re-solve after a cache eviction would still warm-start.
    const bool warm = last != last_solves_.end() &&
                      options_.warm_start_max_drift > 0.0 &&
                      policy.drift <= options_.warm_start_max_drift;
    if (warm) {
      policy.source = Source::kWarmSolve;
      request.options.ishm.max_subset_size = options_.warm_subset_cap;
      request.warm_start.thresholds = last->second.result.thresholds;
      request.warm_start.orderings = last->second.result.policy.orderings;
    } else {
      policy.source = Source::kColdSolve;
    }
    pending.push_back(i);
    to_solve.push_back(std::move(request));
  }

  // Pass 2: solve the misses on this thread and publish them.
  for (size_t j = 0; j < pending.size(); ++j) {
    const size_t slot = pending[j];
    CyclePolicy& policy = report.policies[slot];
    ASSIGN_OR_RETURN(policy.result, solver::Solve(to_solve[j], *compiled_));
    // Counted here, not at queue time, so stats() only reflects solves
    // that actually completed (a failed solve aborts the cycle above).
    if (policy.source == Source::kWarmSolve) {
      ++warm_solves_;
    } else {
      ++cold_solves_;
    }
    cache_.Insert(keys[slot], policy.result);
    last_solves_[policy.budget] =
        LastSolve{instance_.alert_distributions, policy.result, keys[slot]};
  }

  report.seconds = timer.ElapsedSeconds();
  last_cycle_seconds_ = report.seconds;
  total_cycle_seconds_ += report.seconds;
  return report;
}

AuditService::Stats AuditService::stats() const {
  Stats stats;
  stats.cycles = cycles_run_;
  stats.served_from_cache = served_from_cache_;
  stats.warm_solves = warm_solves_;
  stats.cold_solves = cold_solves_;
  stats.total_cycle_seconds = total_cycle_seconds_;
  stats.last_cycle_seconds = last_cycle_seconds_;
  stats.cache = cache_.stats();
  return stats;
}

util::Fingerprint FingerprintServiceConfig(const AuditServiceOptions& options) {
  util::FingerprintBuilder fp;
  fp.AppendString("audit-service-config-v4");
  // Reuse the request fingerprint per budget (instance-free: the null
  // instance gets its own marker) so any option FingerprintRequest treats
  // as solve-relevant is automatically config-relevant here too.
  fp.AppendI64(static_cast<int64_t>(options.budgets.size()));
  for (double budget : options.budgets) {
    solver::EngineRequest request;
    request.solver = options.solver;
    request.budget = budget;
    request.detection_options = options.detection_options;
    request.options = options.solver_options;
    const util::Fingerprint key = FingerprintRequest(request);
    fp.AppendU64(key.hi);
    fp.AppendU64(key.lo);
  }
  fp.AppendDouble(options.warm_start_max_drift);
  fp.AppendI64(options.warm_subset_cap);
  fp.AppendU64(options.cache_capacity);
  return fp.Build();
}

void AuditService::StreamState(util::Serializer& s) {
  s.Section("audit_service", 1);
  if (s.reading()) {
    keys_current_ = false;
    compiled_.reset();
  }
  s.Object(instance_);
  s.I64(cycles_run_);
  uint64_t num_baselines = last_solves_.size();
  s.U64(num_baselines);
  if (s.reading()) {
    last_solves_.clear();
    for (uint64_t i = 0; i < num_baselines && s.ok(); ++i) {
      double budget = 0.0;
      s.F64(budget);
      LastSolve last;
      s.VecObj(last.distributions);
      s.Object(last.result);
      if (s.ok()) last_solves_.emplace(budget, std::move(last));
    }
  } else {
    for (auto& [budget, last] : last_solves_) {
      double key = budget;
      s.F64(key);
      s.VecObj(last.distributions);
      s.Object(last.result);
    }
  }
  s.Object(cache_);
}

}  // namespace auditgame::service
