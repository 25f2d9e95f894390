#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "scenario/stream.h"
#include "util/json.h"

namespace perfbench {

/// One policy of a served solve_cycle response.
struct PolicyRecord {
  int source = 0;  // service::AuditService::Source as sent on the wire
  double objective = 0.0;
};

/// One request a tenant completed with status ok, in submission order.
struct OpRecord {
  bool ingest = false;
  /// ingest: the exact payload bytes the server received.
  std::string payload;
  /// solve_cycle: the echoed per-tenant cycle number and policies.
  int64_t cycle = 0;
  std::vector<PolicyRecord> policies;
};

/// A simulated tenant: its name, its alert stream, and every op it has
/// completed so far (set-up and measured phases alike — the replay needs
/// the full sequence to rebuild the server-side state).
struct Tenant {
  std::string name;
  std::unique_ptr<auditgame::scenario::ScenarioStream> stream;
  std::vector<OpRecord> ops;
  /// Index into `ops` where the measured phase starts.
  size_t measured_begin = 0;
};

/// Where the measured phase crossed a round boundary: cumulative figures
/// since the phase started.
struct RoundMark {
  double seconds = 0.0;
  int64_t ok_ops = 0;
  /// Index into PhaseStats::latency_ms where the next round begins.
  int64_t solve_samples = 0;
  int64_t solved_policies = 0;
  /// The server's /proc/<pid>/stat at the boundary.
  std::string server_stat;
};

/// Counts and samples of one phase, as seen by the client.
struct PhaseStats {
  /// Ops the phase was to complete (tenants x cycles x (1 + polls)).
  int64_t planned_ops = 0;
  /// Frames sent, retries included.
  int64_t attempts = 0;
  int64_t ok_ingest = 0;
  int64_t ok_solve = 0;
  int64_t overloaded = 0;
  int64_t backend_down = 0;
  int64_t errors = 0;
  /// Requests that never got a response (timeout, dropped connection).
  int64_t unanswered = 0;
  /// Responses whose correlation id matched nothing in flight.
  int64_t unmatched = 0;
  /// ok solve_cycle responses whose cycle did not exceed the tenant's last.
  int64_t order_violations = 0;
  /// Re-sends of an op after overloaded/backend_down.
  int64_t retries = 0;
  /// Served policies by source (cache, warm, cold).
  int64_t policies_by_source[3] = {0, 0, 0};
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  /// Per ok solve_cycle: send-to-response latency and the echoed
  /// shard-side cycle time, both in ms.
  std::vector<double> latency_ms;
  std::vector<double> service_ms;
  /// First send to last response.
  double seconds = 0.0;
  /// One mark per round end (see RunPhase).
  std::vector<RoundMark> rounds;
  std::vector<std::string> error_samples;

  int64_t failed() const {
    return overloaded + backend_down + errors + unanswered + unmatched +
           order_violations;
  }
  auditgame::util::JsonValue ToJson() const;
};

/// Requests in flight at once, never more than one per tenant: 4 per shard
/// of the benchmark's 2-shard server, well below its queue bound.
constexpr int kWindow = 8;

struct LoopConfig {
  /// The phase is cut into this many rounds of equal op counts; a mark is
  /// taken as each round's last op completes.
  int rounds = 1;
  /// Reads the server's /proc/<pid>/stat for a round mark.
  std::function<std::string()> sample_server;
};

/// Runs one closed-loop phase over one connection: every tenant runs
/// `cycles` audit cycles of one `ingest` followed by `polls` `solve_cycle`
/// requests. Tenants are served round-robin, at most one request each in
/// flight, so each tenant's order is fixed while responses interleave
/// across tenants and shards. After `cap_seconds` no new op starts; the
/// phase then drains what is in flight. Checks response pairing and
/// per-tenant strictly increasing cycle numbers as it goes.
PhaseStats RunPhase(auditgame::net::FrameClient& client,
                    std::vector<Tenant>& tenants, int cycles, int polls,
                    const LoopConfig& config, double cap_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
