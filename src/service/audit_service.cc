#include "service/audit_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/game_io.h"
#include "core/policy.h"
#include "util/serializer.h"
#include "util/timer.h"

namespace auditgame::service {
namespace {

bool BitwiseEqual(const std::vector<prob::CountDistribution>& a,
                  const std::vector<prob::CountDistribution>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const prob::CountDistribution& x,
                       const prob::CountDistribution& y) {
                      return x.BitwiseEqual(y);
                    });
}

}  // namespace

AuditService::AuditService(core::GameInstance instance,
                           AuditServiceOptions options)
    : AuditService(
          std::make_shared<const core::GameInstance>(std::move(instance)),
          std::make_shared<const AuditServiceOptions>(std::move(options)),
          nullptr) {}

AuditService::AuditService(std::shared_ptr<const core::GameInstance> base,
                           std::shared_ptr<const AuditServiceOptions> options,
                           std::shared_ptr<const core::CompiledGame> game)
    : options_(std::move(options)),
      base_(std::move(base)),
      distributions_(base_, &base_->alert_distributions),
      compiled_(std::move(game)),
      cache_(options_->cache_entries_per_budget * options_->budgets.size()) {}

util::Status AuditService::UpdateAlertDistributions(
    std::vector<prob::CountDistribution> distributions) {
  if (static_cast<int>(distributions.size()) != base_->num_types()) {
    return util::InvalidArgumentError(
        "alert distribution update has " +
        std::to_string(distributions.size()) + " entries for " +
        std::to_string(base_->num_types()) + " types");
  }
  // A rejected update leaves the service serving the previous
  // distributions.
  RETURN_IF_ERROR(base_->ValidateWith(distributions));
  distributions_ = std::make_shared<const std::vector<prob::CountDistribution>>(
      std::move(distributions));
  keys_current_ = false;
  return util::OkStatus();
}

core::GameInstance AuditService::instance() const {
  core::GameInstance instance;
  instance.type_names = base_->type_names;
  instance.audit_costs = base_->audit_costs;
  instance.alert_distributions = *distributions_;
  instance.adversaries = base_->adversaries;
  return instance;
}

const std::vector<prob::CountDistribution>*
AuditService::baseline_distributions(double budget) const {
  const auto last = last_solves_.find(budget);
  return last == last_solves_.end() ? nullptr
                                    : last->second.distributions.get();
}

util::StatusOr<std::vector<double>> AuditService::MixedDetectionForPolicy(
    const CyclePolicy& policy) const {
  ASSIGN_OR_RETURN(core::DetectionModel model,
                   core::DetectionModel::Create(instance(), policy.budget,
                                                options_->detection_options));
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

solver::EngineRequest AuditService::BaseRequest(
    double budget, const core::GameInstance* instance) const {
  solver::EngineRequest request;
  request.solver = options_->solver;
  request.instance = instance;
  request.budget = budget;
  request.detection_options = options_->detection_options;
  request.options = options_->solver_options;
  return request;
}

const std::vector<util::Fingerprint>& AuditService::RequestKeys() {
  if (!keys_current_) {
    const util::Fingerprint game =
        core::FingerprintGame(*base_, *distributions_);
    request_keys_.resize(options_->budgets.size());
    for (size_t i = 0; i < options_->budgets.size(); ++i) {
      request_keys_[i] = FingerprintRequestForGame(
          game, BaseRequest(options_->budgets[i], nullptr));
    }
    keys_current_ = true;
  }
  return request_keys_;
}

util::StatusOr<AuditService::CycleReport> AuditService::RunCycle() {
  util::Timer timer;
  // The instance the solves read, assembled by the first that needs it: a
  // cycle served from the cache builds none.
  std::optional<core::GameInstance> game;
  const auto solve_instance = [&game, this]() -> const core::GameInstance* {
    if (!game.has_value()) game.emplace(instance());
    return &*game;
  };
  // Compiling also validates the instance, so an invalid game fails here,
  // before anything hashes it. A failed compile is not kept.
  if (compiled_ == nullptr) {
    ASSIGN_OR_RETURN(core::CompiledGame compiled,
                     core::Compile(*solve_instance()));
    compiled_ = std::make_shared<const core::CompiledGame>(std::move(compiled));
  }
  CycleReport report;
  report.cycle = ++cycles_run_;
  report.policies.resize(options_->budgets.size());

  // Pass 1: serve fingerprint hits from the cache; queue the rest. Every
  // request is built before any solve publishes a new warm-start baseline.
  std::vector<size_t> pending;  // the budget slot of each queued solve
  std::vector<solver::EngineRequest> to_solve;
  const std::vector<util::Fingerprint>& keys = RequestKeys();
  for (size_t i = 0; i < options_->budgets.size(); ++i) {
    const double budget = options_->budgets[i];
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
                       : MeasureDrift(*last->second.distributions,
                                      *distributions_);

    if (std::shared_ptr<const solver::SolveResult> cached = cache_.Find(key)) {
      policy.source = Source::kCache;
      ++served_from_cache_;
      policy.result = *cached;
      // The served policy becomes the drift baseline and warm seed for the
      // next cycle, exactly as if it had been re-solved. A same-key
      // baseline already holds it.
      if (!same_key_baseline) {
        last_solves_[budget] =
            LastSolve{distributions_, std::move(cached), key};
      }
      continue;
    }

    solver::EngineRequest request = BaseRequest(budget, solve_instance());
    // warm_start_max_drift = 0 disables warm solves outright (the
    // documented only-cold-results-cached mode) — without the > 0 guard a
    // zero-drift re-solve after a cache eviction would still warm-start.
    const bool warm = last != last_solves_.end() &&
                      options_->warm_start_max_drift > 0.0 &&
                      policy.drift <= options_->warm_start_max_drift;
    if (warm) {
      policy.source = Source::kWarmSolve;
      request.options.ishm.max_subset_size = options_->warm_subset_cap;
      request.warm_start.thresholds = last->second.result->thresholds;
      request.warm_start.orderings = last->second.result->policy.orderings;
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
    // One shared copy serves the cache entry and the baseline.
    auto result = std::make_shared<solver::SolveResult>(policy.result);
    cache_.Insert(keys[slot], result);
    last_solves_[policy.budget] =
        LastSolve{distributions_, std::move(result), keys[slot]};
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
  fp.AppendString("audit-service-config-v5");
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
  fp.AppendU64(options.cache_entries_per_budget);
  return fp.Build();
}

void AuditService::StreamState(util::Serializer& s) {
  s.Section("audit_service", 1);
  core::GameInstance game = s.reading() ? core::GameInstance() : instance();
  s.Object(game);
  if (s.reading()) {
    keys_current_ = false;
    // A shard's tenants read back the fixed parts they were built with,
    // so they go on sharing the shard's base instance and compiled game.
    // A never-ingested tenant reads back the base's own distributions and
    // aliases them again.
    if (!s.ok() || !core::SameCompileInputs(game, *base_)) compiled_.reset();
    if (s.ok() && core::SameFixedParts(game, *base_)) {
      distributions_ =
          BitwiseEqual(game.alert_distributions, base_->alert_distributions)
              ? Distributions(base_, &base_->alert_distributions)
              : std::make_shared<const std::vector<prob::CountDistribution>>(
                    std::move(game.alert_distributions));
    } else {
      base_ = std::make_shared<const core::GameInstance>(std::move(game));
      distributions_ = Distributions(base_, &base_->alert_distributions);
    }
  }
  s.I64(cycles_run_);
  uint64_t num_baselines = last_solves_.size();
  s.U64(num_baselines);
  if (s.reading()) {
    last_solves_.clear();
    for (uint64_t i = 0; i < num_baselines && s.ok(); ++i) {
      double budget = 0.0;
      s.F64(budget);
      std::vector<prob::CountDistribution> read;
      auto result = std::make_shared<solver::SolveResult>();
      s.VecObj(read);
      s.Object(*result);
      if (!s.ok()) break;
      // A baseline served under the current distributions shares them, as
      // it did before the write.
      Distributions distributions =
          BitwiseEqual(read, *distributions_)
              ? distributions_
              : std::make_shared<const std::vector<prob::CountDistribution>>(
                    std::move(read));
      last_solves_.emplace(budget, LastSolve{std::move(distributions),
                                             std::move(result), std::nullopt});
    }
  } else {
    // Writing reads the shared objects and leaves them unchanged.
    for (auto& [budget, last] : last_solves_) {
      double key = budget;
      s.F64(key);
      s.VecObj(const_cast<std::vector<prob::CountDistribution>&>(
          *last.distributions));
      s.Object(const_cast<solver::SolveResult&>(*last.result));
    }
  }
  s.Object(cache_);
}

}  // namespace auditgame::service
