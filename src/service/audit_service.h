#ifndef AUDIT_GAME_SERVICE_AUDIT_SERVICE_H_
#define AUDIT_GAME_SERVICE_AUDIT_SERVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/game.h"
#include "prob/count_distribution.h"
#include "service/policy_cache.h"
#include "solver/solver.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::service {

/// Configuration of an AuditService (fixed for the service's lifetime;
/// per-cycle variation comes from the ingested alert distributions).
struct AuditServiceOptions {
  /// Name of the backend used for every solve (see solver/solver.h).
  std::string solver = "ishm-cggs";
  solver::SolverOptions solver_options;
  core::DetectionModel::Options detection_options;
  /// Budgets served each cycle — one policy per budget.
  std::vector<double> budgets = {10.0};
  /// Drift (max per-type total variation distance between the ingested
  /// alert distributions and the ones the previous policy was solved
  /// under) at or below which a re-solve is warm-started from that policy.
  /// Above it the previous optimum is no longer trusted as a seed — the
  /// shrink-only warm search cannot grow thresholds, so large drifts get a
  /// cold solve from the full-coverage upper bounds. 0 disables warm
  /// solves entirely (even at exactly zero drift), so only cold results
  /// ever enter the cache.
  double warm_start_max_drift = 0.25;
  /// ISHM shrink-subset cap for warm-started re-solves (see
  /// IshmOptions::max_subset_size); 0 keeps the backend's full sweep.
  int warm_subset_cap = 1;
  size_t cache_capacity = 256;
  /// Read by nothing; kept while perfbench/perf_client.cc assigns it.
  int num_threads = 0;
};

/// Content fingerprint of everything in `options` that shapes solve results
/// or cache behaviour (solver + per-budget request configuration, warm-start
/// gates, cache capacity) — num_threads excluded, since nothing reads it.
/// Durable snapshots store this as a guard: restoring state produced under
/// one configuration into a service configured differently would silently
/// change replay, so recovery refuses on mismatch instead.
util::Fingerprint FingerprintServiceConfig(const AuditServiceOptions& options);

/// The serving loop of a live auditing deployment: each audit cycle the
/// operator ingests the day's refreshed alert-count distributions and asks
/// for the optimal policies. The service fingerprints the resulting
/// configuration, serves unchanged (or previously seen) configurations
/// straight from the PolicyCache, and re-solves the rest — warm-started
/// from the previous cycle's policy when the drift is small, cold
/// otherwise. See docs/DESIGN.md "Serving layer".
///
/// Caching semantics: each budget's request is fingerprinted in its *base*
/// (cold) configuration, and warm-started re-solve results are cached
/// under that base key. A warm solve is a valid (heuristic) solve of the
/// same configuration — the drift gate bounds how far its seed can be from
/// the optimum, and `bench/micro_cache` tracks the resulting objective gap
/// (float-rounding level on Syn A) — so serving it on an exact revisit
/// trades a provably-searched-the-same-space guarantee for an
/// order-of-magnitude latency win. Deployments that want only cold results
/// cached can set `warm_start_max_drift = 0`.
///
/// Threading: RunCycle() solves on the calling thread, and the service is
/// a single-writer loop — call UpdateAlertDistributions()/RunCycle() from
/// one thread at a time. The PolicyCache is thread-safe and may be read
/// concurrently.
class AuditService {
 public:
  /// Where a cycle's policy came from.
  enum class Source { kCache, kWarmSolve, kColdSolve };

  struct CyclePolicy {
    double budget = 0.0;
    Source source = Source::kColdSolve;
    /// Drift against the distributions of the previous solve at this
    /// budget (0 when there is none yet).
    double drift = 0.0;
    solver::SolveResult result;
  };

  struct CycleReport {
    int64_t cycle = 0;
    std::vector<CyclePolicy> policies;
    /// Wall-clock of the whole cycle (lookups + batched solves).
    double seconds = 0.0;
  };

  /// Counters of the serving loop, for operational reporting (the replay
  /// tools' summaries) — callers read real served/warm/cold splits here
  /// instead of recomputing them from per-cycle reports. Everything but
  /// `cycles` counts this process only: a restored service starts them at
  /// zero. Single-writer like the service itself: read from the thread
  /// that runs the cycles (the embedded cache stats are additionally safe
  /// to read from anywhere, see PolicyCache).
  struct Stats {
    /// The last cycle number, restored with the state.
    int64_t cycles = 0;
    /// Policies by source, summed over all cycles and budgets.
    int64_t served_from_cache = 0;
    int64_t warm_solves = 0;
    int64_t cold_solves = 0;
    /// Per-cycle wall time: total across all cycles, and the most recent.
    double total_cycle_seconds = 0.0;
    double last_cycle_seconds = 0.0;
    PolicyCache::Stats cache;
  };

  /// Takes the initial game instance (validated on first use) and the
  /// serving configuration.
  AuditService(core::GameInstance instance, AuditServiceOptions options = {});

  /// Ingests one cycle's refreshed per-type alert-count distributions
  /// (e.g. refit from the day's logs). Everything else about the game is
  /// unchanged. Fails without side effects if the update does not match
  /// the instance's type count or breaks instance validity.
  util::Status UpdateAlertDistributions(
      std::vector<prob::CountDistribution> distributions);

  /// Serves one cycle: a policy per configured budget, from cache where
  /// the configuration fingerprint is known, re-solved otherwise. The
  /// first cycle after construction or a state read compiles the game
  /// (core::Compile, which also validates it); that compiled game serves
  /// every later cycle, since an ingest changes only the distributions,
  /// which Compile() does not read. An invalid game or the first failing
  /// solve aborts the cycle with its status.
  util::StatusOr<CycleReport> RunCycle();

  const core::GameInstance& instance() const { return instance_; }
  const AuditServiceOptions& options() const { return options_; }
  Stats stats() const;
  PolicyCache::Stats cache_stats() const { return cache_.stats(); }

  /// Expected per-type detection probabilities (mixed Pal) of a served
  /// policy, evaluated under the *current* alert distributions — for a
  /// cached or stale policy this reflects what the policy actually detects
  /// today, not what it detected when solved. This is the observable a
  /// strategic attacker best-responds to, and — because the adversary
  /// utility of Eq. 3 is linear in Pal — everything needed to evaluate the
  /// defender's true loss remotely (see adversary/loop.h). Builds a fresh
  /// DetectionModel per call; keep it off the hot serving path.
  util::StatusOr<std::vector<double>> MixedDetectionForPolicy(
      const CyclePolicy& policy) const;

  /// Max over types of the total variation distance between two
  /// distribution sets; 1 (maximal) on a size mismatch.
  static double MeasureDrift(const std::vector<prob::CountDistribution>& a,
                             const std::vector<prob::CountDistribution>& b);

  /// Streams the full serving state: the current instance (validated on
  /// read), the cycle number, per-budget warm-start baselines, and the
  /// policy cache. The compiled game is not streamed — it is derived
  /// state, rebuilt by the next cycle from the instance read — and neither
  /// are the stats() counters, which count this process's cycles and
  /// restart with it. Call from the service's single-writer thread.
  void StreamState(util::Serializer& s);

 private:
  /// The cold request for one budget under the current instance.
  solver::EngineRequest BaseRequest(double budget) const;

  /// Each budget's cache key (FingerprintRequest of its BaseRequest), one
  /// per options_.budgets entry. Computed on the first cycle after the
  /// instance changes, from one hash of the instance.
  const std::vector<util::Fingerprint>& RequestKeys();

  struct LastSolve {
    std::vector<prob::CountDistribution> distributions;
    solver::SolveResult result;
    /// The key `result` was served under; unknown after a restore (keys
    /// are derived state and not streamed).
    std::optional<util::Fingerprint> key;
  };

  AuditServiceOptions options_;
  core::GameInstance instance_;
  /// Compile(instance_), made by the first RunCycle() after construction
  /// or a state read; empty until then.
  std::optional<core::CompiledGame> compiled_;
  PolicyCache cache_;
  /// Previous solved state per budget: warm-start seed + drift baseline.
  std::map<double, LastSolve> last_solves_;
  /// RequestKeys() for the current instance_, valid while keys_current_.
  /// Cleared by every accepted ingest and every state read.
  std::vector<util::Fingerprint> request_keys_;
  bool keys_current_ = false;
  /// Numbers the responses, so it is state (streamed) — unlike the
  /// counters below.
  int64_t cycles_run_ = 0;
  /// This process's counters behind stats() (cache stats live in the
  /// cache); not streamed.
  int64_t served_from_cache_ = 0;
  int64_t warm_solves_ = 0;
  int64_t cold_solves_ = 0;
  double total_cycle_seconds_ = 0.0;
  double last_cycle_seconds_ = 0.0;
};

}  // namespace auditgame::service

#endif  // AUDIT_GAME_SERVICE_AUDIT_SERVICE_H_
