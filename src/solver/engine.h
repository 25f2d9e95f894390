#ifndef AUDIT_GAME_SOLVER_ENGINE_H_
#define AUDIT_GAME_SOLVER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/game.h"
#include "solver/solver.h"
#include "util/hash.h"
#include "util/lru_cache.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace auditgame::solver {

/// Fans a batch of independent solver::Solve requests across a
/// util::ThreadPool. Typical batches: one instance at several budgets (a
/// sweep), one budget at several step sizes, or independent instances.
/// Results come back in request order regardless of completion order, and
/// each result is bit-for-bit identical to solver::Solve on the same
/// request (per-request RNG state, no sharing).
///
/// Compilation is cached across the engine's lifetime, keyed by the game's
/// structure fingerprint (type count + adversaries — the only content
/// Compile() reads): a serving loop that re-solves the same game every
/// cycle compiles it exactly once, even while its alert-count
/// distributions drift, and many batches over one sweep instance share one
/// compile. The cache is LRU-bounded and thread-safe (one mutex; workers
/// only read shared_ptr snapshots taken before the batch is scheduled).
class SolverEngine {
 public:
  struct CompileCacheStats {
    int64_t hits = 0;
    int64_t misses = 0;
  };

  /// `num_threads` = 0 uses ThreadPool::DefaultThreadCount(); < 0 selects
  /// *inline mode* — no pool at all, SolveAll() runs every request on the
  /// calling thread. Inline mode exists for hosts that already own the
  /// concurrency (the audit server's shards: thousands of tenant engines,
  /// each solving from its single shard thread — a pool per tenant would
  /// be thousands of idle threads). `compile_cache_capacity` bounds the
  /// number of distinct compiled games kept across batches.
  explicit SolverEngine(int num_threads = 0,
                        size_t compile_cache_capacity = 64)
      : pool_(num_threads < 0 ? nullptr
                              : std::make_unique<util::ThreadPool>(
                                    num_threads)),
        compiled_cache_(compile_cache_capacity) {}

  /// 0 in inline mode (no worker threads exist).
  int num_threads() const { return pool_ ? pool_->num_threads() : 0; }

  /// Runs every request. Failures (unknown solver, invalid game, solve
  /// error) are reported per-slot; one bad request never aborts the batch.
  std::vector<util::StatusOr<SolveResult>> SolveAll(
      const std::vector<EngineRequest>& requests);

  CompileCacheStats compile_cache_stats() const;

 private:
  using CompiledPtr = std::shared_ptr<const util::StatusOr<core::CompiledGame>>;

  /// Returns the compiled form of `instance`, compiling and caching on miss.
  CompiledPtr CompileCached(const core::GameInstance& instance);

  /// Null in inline mode.
  std::unique_ptr<util::ThreadPool> pool_;
  mutable std::mutex cache_mutex_;
  util::LruCache<util::Fingerprint, CompiledPtr> compiled_cache_;
  CompileCacheStats cache_stats_;
};

}  // namespace auditgame::solver

#endif  // AUDIT_GAME_SOLVER_ENGINE_H_
