#ifndef AUDIT_GAME_SERVER_AUDIT_SERVER_H_
#define AUDIT_GAME_SERVER_AUDIT_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/game.h"
#include "server/durability.h"
#include "server/front_end.h"
#include "server/reactor.h"
#include "server/shard.h"
#include "service/audit_service.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::server {

struct AuditServerOptions {
  /// Listener, reactors, frame and connection limits, drain budget.
  FrontEndOptions front;
  int num_shards = 4;
  /// Per-shard request-queue bound — the backpressure knob. A full queue
  /// answers `overloaded` immediately instead of buffering.
  size_t queue_capacity = 128;
  /// Max requests one shard wakeup drains (the micro-batch size).
  size_t max_batch = 16;
  /// How often the acceptor rebuilds the stats snapshot the `stats` verb
  /// answers from (reactors never lock a shard for it).
  int stats_refresh_ms = 250;
  /// Per-tenant serving configuration. Set service.num_threads < 0 for
  /// servers with many tenants (tools/audit_server does): every tenant
  /// owns a solver engine, and an engine thread pool per tenant does not
  /// scale — inline mode solves on the shard thread itself.
  service::AuditServiceOptions service;
  /// Durable state: per-shard snapshots + ingest/solve WAL under
  /// `durability.data_dir` (empty = off). Start() recovers every shard
  /// from disk before the server accepts a single connection.
  DurabilityOptions durability;
};

/// Defines the shard and service flags of every tool that starts an
/// AuditServer: --shards, --queue_capacity, --batch, --budgets, --eps and
/// --warm_max_drift.
void DefineAuditServerFlags(util::FlagParser& flags);

/// Resolves the flags defined by DefineAuditServerFlags into num_shards,
/// queue_capacity, max_batch and the service's budgets, ISHM step size and
/// warm-start gate; every other field keeps its default. Rejects
/// --shards, --queue_capacity or --batch below 1 (a negative capacity
/// would wrap to an unbounded queue that never answers `overloaded`), an
/// empty --budgets, and an --eps outside (0, 1), which would fail every
/// solve_cycle instead of the start.
util::StatusOr<AuditServerOptions> AuditServerOptionsFromFlags(
    const util::FlagParser& flags);

/// The wire-serving layer over the paper's audit loop: N shards, each a
/// single-writer AuditService host on its own thread, behind the shared
/// client front door (server/front_end.h: listener, acceptor, reactor IO
/// threads, the JSON/binary frame decoder of server/protocol.h and
/// server/binary_codec.h). Tenants are routed by FNV-1a hash of their id,
/// so one tenant's cycles stay ordered (same shard, FIFO queue) while
/// tenants on different shards solve concurrently. Connections pipeline
/// freely: responses are paired by correlation id and may return out of
/// submission order across tenants. See docs/DESIGN.md "Network serving".
///
/// Lifecycle: Start() binds and spawns the reactor + shard threads; Run()
/// owns the calling thread until RequestStop() (async-signal-safe,
/// callable from a SIGINT handler) — it then stops accepting, lets every
/// shard drain its accepted queue, waits for every reactor to flush the
/// resulting responses, and returns. Every accepted request is answered
/// with a policy, `overloaded`, or an error frame — nothing is dropped in
/// silence.
class AuditServer {
 public:
  /// Every tenant's game starts as a copy of `base_instance` and diverges
  /// through `ingest`.
  AuditServer(core::GameInstance base_instance, AuditServerOptions options);
  ~AuditServer();

  AuditServer(const AuditServer&) = delete;
  AuditServer& operator=(const AuditServer&) = delete;

  util::Status Start();
  util::Status Run();

  /// Signals Run() to begin the graceful drain. Async-signal-safe.
  void RequestStop() { front_.RequestStop(); }

  /// The bound port (valid after Start()).
  uint16_t port() const { return front_.port(); }

  /// Deterministic tenant routing: FNV-1a(tenant) mod num_shards. Exposed
  /// for the routing tests and capacity planning.
  static size_t ShardForTenant(const std::string& tenant, size_t num_shards);

  /// Builds a fresh stats body (server counters + per-shard snapshots) —
  /// the final-summary path for tools and tests. The `stats` verb itself
  /// is answered from the cached snapshot (see StatsSnapshotBody), so a
  /// stats request never locks a shard from a reactor thread.
  util::JsonValue::Object StatsBody();

  /// Per-shard timing-free state fingerprints (hex). Test/inspection hook:
  /// call only while the shards are quiescent (before Run() or after it
  /// returned) — it serializes live tenant state.
  std::vector<std::string> StateFingerprints();

 private:
  FrontEndHooks MakeHooks();
  /// Creates and recovers the shards, then starts them.
  util::Status StartShards();
  /// Routes one validated request to its shard, answering `overloaded`
  /// when the queue refuses it. `payload` is the verbatim frame body —
  /// WAL'd for state-mutating verbs when durability is on.
  void Dispatch(Reactor& reactor, uint64_t conn_id, Request request,
                const std::string& payload);
  /// Joins the shard threads, abandoning their unstarted backlogs.
  void StopShards();
  /// Copy of the periodically refreshed stats snapshot (what the `stats`
  /// verb answers with).
  util::JsonValue::Object StatsSnapshotBody();
  void RefreshStatsSnapshot();

  AuditServerOptions options_;
  core::GameInstance base_instance_;

  /// Declared before shards_ so the reactors (whose inboxes the shard
  /// responders post into) outlive the shard threads.
  FrontEnd front_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex snapshot_mutex_;
  std::shared_ptr<const util::JsonValue::Object> stats_snapshot_;
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_AUDIT_SERVER_H_
