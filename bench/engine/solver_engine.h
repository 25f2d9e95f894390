#ifndef AUDIT_GAME_BENCH_ENGINE_SOLVER_ENGINE_H_
#define AUDIT_GAME_BENCH_ENGINE_SOLVER_ENGINE_H_

#include <vector>

#include "solver/solver.h"
#include "util/statusor.h"
#include "bench/engine/thread_pool.h"

namespace auditgame::solver {

/// Fans a batch of independent solver::Solve requests across a
/// util::ThreadPool — the batch helper of the paper-reproduction sweeps
/// (bench/, examples/). Typical batches: one instance at several budgets,
/// one budget at several step sizes, or independent instances. Each
/// distinct instance is compiled once per batch; results come back in
/// request order regardless of completion order, and each result is
/// bit-for-bit identical to solver::Solve on the same request (per-request
/// RNG state, no sharing). It lives with the benchmark drivers, its only
/// users: the library solves on its caller's thread.
class SolverEngine {
 public:
  /// `num_threads` = 0 uses ThreadPool::DefaultThreadCount().
  explicit SolverEngine(int num_threads = 0) : pool_(num_threads) {}

  int num_threads() const { return pool_.num_threads(); }

  /// Runs every request. Failures (unknown solver, invalid game, solve
  /// error) are reported per-slot; one bad request never aborts the batch.
  std::vector<util::StatusOr<SolveResult>> SolveAll(
      const std::vector<EngineRequest>& requests);

 private:
  util::ThreadPool pool_;
};

}  // namespace auditgame::solver

#endif  // AUDIT_GAME_BENCH_ENGINE_SOLVER_ENGINE_H_
