#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "core/game.h"
#include "service/audit_service.h"
#include "util/json.h"

namespace perfbench {

struct ReplayOptions {
  /// Record spans and per-layer counters (the traced run).
  bool trace = false;
  /// Where the traced run writes its spans as CSV (empty = nowhere).
  std::string spans_path;
};

/// What the in-process replay found.
struct ReplayResult {
  /// Served policies compared against the replay, and how many of them
  /// differed (source, objective bits or cycle number).
  int64_t policies_checked = 0;
  int64_t mismatches = 0;
  std::vector<std::string> mismatch_samples;
  /// The replay's own loss over the measured phase's policies.
  double measured_loss_sum = 0.0;
  int64_t measured_policies = 0;
  double seconds = 0.0;
  /// Per-layer counters of the traced run (empty otherwise).
  auditgame::util::JsonValue::Object trace;
};

/// Replays every tenant's completed request sequence through a fresh
/// in-process service::AuditService configured like the server's tenants,
/// from the exact ingest payloads the server received, and checks every
/// served policy against the replay's. With `trace` it also re-solves each
/// warm/cold policy through core::SolveIshm over a timed wrapper of
/// core::MakeCggsEvaluator, runs core::SolveCggs on the served thresholds,
/// times core::DetectionModel::Create/SetThresholds and the binary codec,
/// and counts allocations per served solve.
ReplayResult Replay(const std::vector<Tenant>& tenants,
                    const auditgame::core::GameInstance& instance,
                    const auditgame::service::AuditServiceOptions& options,
                    const ReplayOptions& replay_options);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
