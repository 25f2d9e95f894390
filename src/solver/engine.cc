#include "solver/engine.h"

#include <exception>
#include <map>
#include <memory>
#include <utility>

#include "core/game_io.h"

namespace auditgame::solver {

SolverEngine::CompiledPtr SolverEngine::CompileCached(
    const core::GameInstance& instance) {
  // Invalid instances are never cached (and never hit): caching keys on
  // the compile-relevant structure only, and validity also depends on the
  // parts the key skips (distribution count, cost positivity).
  if (util::Status valid = instance.Validate(); !valid.ok()) {
    return std::make_shared<const util::StatusOr<core::CompiledGame>>(
        std::move(valid));
  }
  // Fingerprinting is O(instance size) — negligible next to a solve — and
  // makes the cache content-addressed: the same game behind two different
  // pointers (or re-parsed next cycle) still compiles once. The structure
  // fingerprint skips the alert-count distributions, which Compile() does
  // not read, so a serving loop whose distributions drift every cycle
  // still hits.
  const util::Fingerprint key = core::FingerprintGameStructure(instance);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (CompiledPtr* cached = compiled_cache_.Lookup(key)) {
      ++cache_stats_.hits;
      return *cached;
    }
  }
  // Compile outside the lock; a rare duplicate compile of the same game by
  // two concurrent SolveAll calls is cheaper than serializing all compiles.
  auto compiled = std::make_shared<const util::StatusOr<core::CompiledGame>>(
      core::Compile(instance));
  std::lock_guard<std::mutex> lock(cache_mutex_);
  ++cache_stats_.misses;
  compiled_cache_.Insert(key, compiled);
  return compiled;
}

SolverEngine::CompileCacheStats SolverEngine::compile_cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_stats_;
}

std::vector<util::StatusOr<SolveResult>> SolverEngine::SolveAll(
    const std::vector<EngineRequest>& requests) {
  // Batches typically share one instance across many budgets/step sizes:
  // resolve each distinct instance against the persistent compile cache up
  // front. The map is read-only once the workers start, so they need no
  // locking, and the shared_ptrs keep entries alive even if another batch
  // evicts them meanwhile.
  std::map<const core::GameInstance*, CompiledPtr> compiled;
  for (const EngineRequest& request : requests) {
    if (request.instance != nullptr &&
        compiled.find(request.instance) == compiled.end()) {
      compiled.emplace(request.instance, CompileCached(*request.instance));
    }
  }

  // Workers fill preassigned slots so the output order is the input order,
  // independent of scheduling. Inline mode (no pool) runs the same worker
  // body on the calling thread — bit-for-bit the same results, since
  // requests never share mutable state either way.
  std::vector<std::unique_ptr<util::StatusOr<SolveResult>>> slots(
      requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const EngineRequest& request = requests[i];
    auto& slot = slots[i];
    auto work = [&request, &slot, &compiled] {
      // Library code is exception-free (Status-based), but a worker must
      // never let anything escape onto the pool thread.
      try {
        if (request.instance == nullptr) {
          slot = std::make_unique<util::StatusOr<SolveResult>>(
              util::InvalidArgumentError("EngineRequest::instance is null"));
          return;
        }
        const auto& game = *compiled.at(request.instance);
        slot = std::make_unique<util::StatusOr<SolveResult>>(
            game.ok() ? Solve(request, *game)
                      : util::StatusOr<SolveResult>(game.status()));
      } catch (const std::exception& e) {
        slot = std::make_unique<util::StatusOr<SolveResult>>(
            util::InternalError(std::string("solver threw: ") + e.what()));
      } catch (...) {
        slot = std::make_unique<util::StatusOr<SolveResult>>(
            util::InternalError("solver threw a non-exception"));
      }
    };
    if (pool_) {
      pool_->Schedule(std::move(work));
    } else {
      work();
    }
  }
  if (pool_) pool_->Wait();

  std::vector<util::StatusOr<SolveResult>> results;
  results.reserve(slots.size());
  for (auto& slot : slots) {
    results.push_back(slot == nullptr
                          ? util::StatusOr<SolveResult>(
                                util::InternalError("request never ran"))
                          : std::move(*slot));
  }
  return results;
}

}  // namespace auditgame::solver
