// Microbenchmark for the serving layer's cold-vs-warm re-solve split.
//
// Scenario: the Syn A instance is solved cold, its alert-count
// distributions drift slightly (the daily refit of a live deployment), and
// the drifted instance is re-solved twice — cold from the full-coverage
// upper bounds, and warm-started from the pre-drift policy (seed
// thresholds + ordering pool, single-type shrink repair). Reports both
// latencies and the speedup, verifies the warm objective stays within
// `--quality_tol` of the cold objective on the same drifted instance, and
// checks the zero-drift path: an AuditService cycle repeated without any
// distribution update must be served from the PolicyCache with a
// bit-for-bit identical policy.
//
// A second case times the cache hit itself on the served setting (uniform
// scenario, 5 types, budgets 6 and 10): repeated cycles with no ingest in
// between, the poll that dominates a live deployment's traffic. It reports
// heap allocations per cycle (deterministic, the gated counter) and
// microseconds per cycle (context only).
//
// Measured numbers land in BENCH_cache.json so the cold/warm trajectory is
// trackable across commits.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_count.h"
#include "data/syn_a.h"
#include "prob/count_distribution.h"
#include "scenario/generator.h"
#include "service/audit_service.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

/// Cycles in the timed cache-hit loop.
constexpr int kCacheHitCycles = 2000;

struct CacheHitCase {
  double allocations_per_cycle = 0.0;
  double cycle_us = 0.0;
};

/// Serves one cold cycle, then kCacheHitCycles cycles that must all be
/// cache hits.
util::StatusOr<CacheHitCase> MeasureCacheHits() {
  scenario::ScenarioSpec spec;
  spec.num_types = 5;
  ASSIGN_OR_RETURN(core::GameInstance instance, scenario::Generate(spec));
  service::AuditServiceOptions options;
  options.budgets = {6.0, 10.0};
  options.solver_options.ishm.step_size = 0.25;
  service::AuditService service(std::move(instance), options);
  RETURN_IF_ERROR(service.RunCycle().status());

  const uint64_t allocations_before = bench::HeapAllocationCount();
  util::Timer timer;
  for (int i = 0; i < kCacheHitCycles; ++i) {
    ASSIGN_OR_RETURN(const service::AuditService::CycleReport report,
                     service.RunCycle());
    for (const auto& policy : report.policies) {
      if (policy.source != service::AuditService::Source::kCache) {
        return util::InternalError("cycle " + std::to_string(report.cycle) +
                                   " was not served from the cache");
      }
    }
  }
  CacheHitCase result;
  result.cycle_us = timer.ElapsedSeconds() * 1e6 / kCacheHitCycles;
  result.allocations_per_cycle =
      static_cast<double>(bench::HeapAllocationCount() - allocations_before) /
      kCacheHitCycles;
  return result;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("budget", "10", "audit budget B");
  flags.Define("eps", "0.1", "ISHM step size");
  flags.Define("drift", "0.02", "pmf jitter amplitude for the drifted cycle");
  flags.Define("reps", "3", "timing repetitions per variant (median-free avg)");
  flags.Define("seed", "11", "jitter RNG seed");
  flags.Define("quality_tol", "0.05",
               "max |warm - cold| objective gap on the drifted instance");
  flags.Define("min_speedup", "0",
               "fail unless warm is at least this many times faster than a "
               "cold solve of the drifted instance (0 = report only)");
  flags.Define("json", "BENCH_cache.json",
               "machine-readable report path (empty = none)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }

  auto baseline = data::MakeSynA();
  if (!baseline.ok()) {
    std::cerr << baseline.status() << "\n";
    return 1;
  }
  const double budget = flags.GetDouble("budget");
  const int reps = std::max(1, flags.GetInt("reps"));

  auto make_request = [&](const core::GameInstance& instance) {
    solver::EngineRequest request;
    request.solver = "ishm-cggs";
    request.instance = &instance;
    request.budget = budget;
    request.options.ishm.step_size = flags.GetDouble("eps");
    return request;
  };

  // Cold solve of the baseline: the pre-drift policy every later variant
  // seeds from.
  const solver::EngineRequest base_request = make_request(*baseline);
  auto pre_drift = solver::Solve(base_request);
  if (!pre_drift.ok()) {
    std::cerr << pre_drift.status() << "\n";
    return 1;
  }

  // Drift the alert-count distributions.
  core::GameInstance drifted = *baseline;
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  for (auto& dist : drifted.alert_distributions) {
    auto jittered = prob::JitterPmf(dist, flags.GetDouble("drift"), rng);
    if (!jittered.ok()) {
      std::cerr << jittered.status() << "\n";
      return 1;
    }
    dist = std::move(*jittered);
  }

  // Variant A: cold re-solve of the drifted instance.
  const solver::EngineRequest cold_request = make_request(drifted);
  double cold_seconds = 0.0;
  util::StatusOr<solver::SolveResult> cold = util::InternalError("never ran");
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    cold = solver::Solve(cold_request);
    cold_seconds += timer.ElapsedSeconds();
    if (!cold.ok()) {
      std::cerr << cold.status() << "\n";
      return 1;
    }
  }
  cold_seconds /= reps;

  // Variant B: warm-started re-solve seeded from the pre-drift policy.
  solver::EngineRequest warm_request = make_request(drifted);
  warm_request.options.ishm.max_subset_size = 1;
  warm_request.warm_start.thresholds = pre_drift->thresholds;
  warm_request.warm_start.orderings = pre_drift->policy.orderings;
  double warm_seconds = 0.0;
  util::StatusOr<solver::SolveResult> warm = util::InternalError("never ran");
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    warm = solver::Solve(warm_request);
    warm_seconds += timer.ElapsedSeconds();
    if (!warm.ok()) {
      std::cerr << warm.status() << "\n";
      return 1;
    }
  }
  warm_seconds /= reps;

  const double speedup = warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
  const double quality_gap = std::fabs(warm->objective - cold->objective);

  // Zero-drift identity: the second cycle of an unchanged service must be a
  // cache hit carrying the identical policy.
  service::AuditServiceOptions service_options;
  service_options.budgets = {budget};
  service_options.solver_options.ishm.step_size = flags.GetDouble("eps");
  service::AuditService service(*baseline, service_options);
  auto first = service.RunCycle();
  auto second = service.RunCycle();
  bool identity_ok = first.ok() && second.ok();
  if (identity_ok) {
    const auto& a = first->policies[0];
    const auto& b = second->policies[0];
    identity_ok =
        a.source == service::AuditService::Source::kColdSolve &&
        b.source == service::AuditService::Source::kCache &&
        a.result.objective == b.result.objective &&
        a.result.thresholds == b.result.thresholds &&
        a.result.policy.orderings == b.result.policy.orderings &&
        a.result.policy.probabilities == b.result.policy.probabilities;
  }

  const util::StatusOr<CacheHitCase> hits = MeasureCacheHits();
  if (!hits.ok()) {
    std::cerr << hits.status() << "\n";
    return 1;
  }

  std::cout << "# cold vs warm re-solve after drift, ishm-cggs on Syn A\n";
  std::cout << "budget,eps,drift,cold_seconds,warm_seconds,speedup,"
               "cold_objective,warm_objective,quality_gap,"
               "cold_evaluations,warm_evaluations,zero_drift_identity\n";
  std::cout << budget << "," << flags.GetDouble("eps") << ","
            << flags.GetDouble("drift") << "," << cold_seconds << ","
            << warm_seconds << "," << speedup << "," << cold->objective << ","
            << warm->objective << "," << quality_gap << ","
            << cold->stats.evaluations << "," << warm->stats.evaluations << ","
            << (identity_ok ? "ok" : "FAIL") << "\n";
  std::cout << "# cache-hit cycle, uniform T = 5, budgets 6 and 10\n";
  std::cout << "cycles,allocations_per_cycle,cycle_us\n";
  std::cout << kCacheHitCycles << "," << hits->allocations_per_cycle << ","
            << hits->cycle_us << "\n";

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    util::JsonValue::Object report;
    report["bench"] = "micro_cache";
    report["budget"] = budget;
    report["drift"] = flags.GetDouble("drift");
    report["cold_seconds"] = cold_seconds;
    report["warm_seconds"] = warm_seconds;
    report["speedup"] = speedup;
    report["cold_objective"] = cold->objective;
    report["warm_objective"] = warm->objective;
    report["quality_gap"] = quality_gap;
    report["zero_drift_identity"] = identity_ok;
    report["cache_hit_allocations_per_cycle"] = hits->allocations_per_cycle;
    report["cache_hit_cycle_us"] = hits->cycle_us;
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << util::JsonValue(std::move(report)).Dump(2) << "\n";
  }

  if (!identity_ok) {
    std::cerr << "zero-drift cycle was not served as an identical cache hit\n";
    return 1;
  }
  if (quality_gap > flags.GetDouble("quality_tol")) {
    std::cerr << "warm-started objective drifted " << quality_gap
              << " from the cold objective (tol "
              << flags.GetDouble("quality_tol") << ")\n";
    return 1;
  }
  const double min_speedup = flags.GetDouble("min_speedup");
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::cerr << "warm speedup " << speedup << " below required "
              << min_speedup << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
