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
// A third case measures what a tenant keeps: the serialized AuditService
// bytes (what a shard snapshot copies per tenant, most of it the
// PolicyCache) after a fixed jitter stream of kStateCycles cycles ×
// kStatePolls polls on the same setting. The byte count is deterministic
// and gated, so the cache cannot grow back unnoticed.
//
// A fourth case measures the heap a tenant keeps on the served path: the
// live bytes a server::Shard holds per tenant after each of kHeapTenants
// tenants served one cold cycle, once for tenants that never ingest
// (tenant_heap_bytes) and once for tenants that first ingest their own
// jittered distributions (ingested_tenant_heap_bytes, the shape of a new
// tenant in a live deployment). Gated too, so a per-tenant copy of what
// the shard's tenants share cannot come back unnoticed.
//
// Measured numbers land in BENCH_cache.json so the cold/warm trajectory is
// trackable across commits.
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_count.h"
#include "data/syn_a.h"
#include "prob/count_distribution.h"
#include "scenario/generator.h"
#include "scenario/stream.h"
#include "server/shard.h"
#include "service/audit_service.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/random.h"
#include "util/serializer.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

/// Cycles in the timed cache-hit loop.
constexpr int kCacheHitCycles = 2000;

/// Cycles and polls per cycle of the tenant-state stream.
constexpr int kStateCycles = 300;
constexpr int kStatePolls = 20;

/// Tenants in the tenant-heap measurement.
constexpr int kHeapTenants = 64;

/// The served setting the cache, state and heap cases run: uniform,
/// T = 5, budgets 6 and 10, eps 0.25.
util::StatusOr<core::GameInstance> ServedGame() {
  scenario::ScenarioSpec spec;
  spec.num_types = 5;
  return scenario::Generate(spec);
}

service::AuditServiceOptions ServedOptions() {
  service::AuditServiceOptions options;
  options.budgets = {6.0, 10.0};
  options.solver_options.ishm.step_size = 0.25;
  return options;
}

/// Serialized AuditService bytes after kStateCycles jitter-stream cycles
/// (the stream's defaults: drift 0.05, a baseline revisit every 5 cycles)
/// of kStatePolls polls each.
util::StatusOr<size_t> MeasureTenantStateBytes() {
  ASSIGN_OR_RETURN(core::GameInstance instance, ServedGame());
  scenario::ScenarioStream stream(instance.alert_distributions,
                                  scenario::StreamSpec{});
  service::AuditService service(std::move(instance), ServedOptions());
  for (int cycle = 0; cycle < kStateCycles; ++cycle) {
    ASSIGN_OR_RETURN(std::vector<prob::CountDistribution> next, stream.Next());
    RETURN_IF_ERROR(service.UpdateAlertDistributions(std::move(next)));
    for (int poll = 0; poll < kStatePolls; ++poll) {
      RETURN_IF_ERROR(service.RunCycle().status());
    }
  }
  util::Serializer writer = util::Serializer::Writer();
  service.StreamState(writer);
  return writer.TakeBuffer().size();
}

/// Live heap bytes per tenant that one server::Shard keeps after each of
/// kHeapTenants tenants served one cold cycle, each after ingesting its own
/// jittered distributions when `ingest` is set. Requests go one at a time,
/// so the shard's queue and latency window grow the same way in every run
/// (the window's 64 samples add 8 bytes per tenant), and the shard thread
/// has exited, freeing its solver scratch, before the second reading.
util::StatusOr<double> MeasureTenantHeapBytes(bool ingest) {
  ASSIGN_OR_RETURN(core::GameInstance instance, ServedGame());
  // One cycle first, so process-wide state built on first use is not
  // counted.
  {
    service::AuditService warmup(instance, ServedOptions());
    RETURN_IF_ERROR(warmup.RunCycle().status());
  }
  const std::vector<prob::CountDistribution> baseline =
      instance.alert_distributions;
  std::mutex mutex;
  std::condition_variable answered_cv;
  int answered = 0;
  server::Shard shard(
      0, std::move(instance), ServedOptions(), /*queue_capacity=*/1,
      /*max_batch=*/1,
      [&](std::vector<server::Shard::Response> responses) {
        std::lock_guard<std::mutex> lock(mutex);
        answered += static_cast<int>(responses.size());
        answered_cv.notify_one();
      },
      nullptr);
  util::Rng rng(7);
  const int64_t before = bench::HeapLiveBytes();
  shard.Start();
  int64_t id = 0;
  const auto submit = [&](server::ShardTask task) -> util::Status {
    task.request.id = id++;
    if (!shard.TrySubmit(std::move(task))) {
      return util::InternalError("the shard refused a request");
    }
    std::unique_lock<std::mutex> lock(mutex);
    answered_cv.wait(lock, [&] { return answered == id; });
    return util::OkStatus();
  };
  for (int i = 0; i < kHeapTenants; ++i) {
    server::ShardTask task;
    task.request.tenant = "tenant-" + std::to_string(i);
    if (ingest) {
      server::ShardTask ingest_task;
      ingest_task.request.verb = server::Verb::kIngest;
      ingest_task.request.tenant = task.request.tenant;
      for (const prob::CountDistribution& dist : baseline) {
        ASSIGN_OR_RETURN(prob::CountDistribution jittered,
                         prob::JitterPmf(dist, 0.05, rng));
        ingest_task.request.distributions.push_back(std::move(jittered));
      }
      RETURN_IF_ERROR(submit(std::move(ingest_task)));
    }
    task.request.verb = server::Verb::kSolveCycle;
    RETURN_IF_ERROR(submit(std::move(task)));
  }
  shard.BeginDrain();
  shard.Join();
  const int64_t kept = bench::HeapLiveBytes() - before;
  const server::ShardStatsSnapshot stats = shard.Snapshot();
  const auto solves = static_cast<int64_t>(kHeapTenants *
                                          ServedOptions().budgets.size());
  if (stats.request_errors != 0 || stats.cold_solves != solves) {
    return util::InternalError("the shard did not cold-solve every tenant");
  }
  return static_cast<double>(kept) / kHeapTenants;
}

struct CacheHitCase {
  double allocations_per_cycle = 0.0;
  double cycle_us = 0.0;
};

/// Serves one cold cycle, then kCacheHitCycles cycles that must all be
/// cache hits.
util::StatusOr<CacheHitCase> MeasureCacheHits() {
  ASSIGN_OR_RETURN(core::GameInstance instance, ServedGame());
  service::AuditService service(std::move(instance), ServedOptions());
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
  const util::StatusOr<int> reps_flag = flags.GetIntAtLeast("reps", 1);
  if (!reps_flag.ok()) {
    std::cerr << reps_flag.status() << "\n";
    return 1;
  }
  const int reps = *reps_flag;

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
  const util::StatusOr<size_t> state_bytes = MeasureTenantStateBytes();
  if (!state_bytes.ok()) {
    std::cerr << state_bytes.status() << "\n";
    return 1;
  }
  const util::StatusOr<double> heap_bytes = MeasureTenantHeapBytes(false);
  if (!heap_bytes.ok()) {
    std::cerr << heap_bytes.status() << "\n";
    return 1;
  }
  const util::StatusOr<double> ingested_heap_bytes =
      MeasureTenantHeapBytes(true);
  if (!ingested_heap_bytes.ok()) {
    std::cerr << ingested_heap_bytes.status() << "\n";
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
  std::cout << "# tenant state after a jitter stream, same setting\n";
  std::cout << "cycles,polls,tenant_state_bytes\n";
  std::cout << kStateCycles << "," << kStatePolls << "," << *state_bytes
            << "\n";
  std::cout << "# live heap per shard tenant after one cold cycle, same "
               "setting\n";
  std::cout << "tenants,tenant_heap_bytes,ingested_tenant_heap_bytes\n";
  std::cout << kHeapTenants << "," << *heap_bytes << ","
            << *ingested_heap_bytes << "\n";

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
    report["tenant_state_bytes"] = static_cast<double>(*state_bytes);
    report["tenant_heap_bytes"] = *heap_bytes;
    report["ingested_tenant_heap_bytes"] = *ingested_heap_bytes;
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
