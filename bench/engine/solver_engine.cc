#include "bench/engine/solver_engine.h"

#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>

namespace auditgame::solver {

std::vector<util::StatusOr<SolveResult>> SolverEngine::SolveAll(
    const std::vector<EngineRequest>& requests) {
  // Batches typically share one instance across many budgets/step sizes:
  // compile each distinct instance once, up front. The map is read-only
  // once the workers start, so they need no locking.
  std::map<const core::GameInstance*, util::StatusOr<core::CompiledGame>>
      compiled;
  for (const EngineRequest& request : requests) {
    if (request.instance != nullptr &&
        compiled.find(request.instance) == compiled.end()) {
      compiled.emplace(request.instance, core::Compile(*request.instance));
    }
  }

  // Workers fill preassigned slots so the output order is the input order,
  // independent of scheduling.
  std::vector<std::unique_ptr<util::StatusOr<SolveResult>>> slots(
      requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const EngineRequest& request = requests[i];
    auto& slot = slots[i];
    pool_.Schedule([&request, &slot, &compiled] {
      // Library code is exception-free (Status-based), but a worker must
      // never let anything escape onto the pool thread.
      try {
        if (request.instance == nullptr) {
          slot = std::make_unique<util::StatusOr<SolveResult>>(
              util::InvalidArgumentError("EngineRequest::instance is null"));
          return;
        }
        const auto& game = compiled.at(request.instance);
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
    });
  }
  pool_.Wait();

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
