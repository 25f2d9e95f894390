#ifndef AUDIT_GAME_SERVER_ROUTER_H_
#define AUDIT_GAME_SERVER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "server/front_end.h"
#include "server/hash_ring.h"
#include "server/protocol.h"
#include "server/reactor.h"
#include "server/shard.h"
#include "util/json.h"
#include "util/status.h"

namespace auditgame::server {

struct RouterOptions {
  /// The client-facing listener, reactors, limits and drain budget (the
  /// same front door as AuditServer's).
  FrontEndOptions front;
  /// Backend audit_server addresses, "host:port" each. Index order is the
  /// node identity on the hash ring, so a restarted router with the same
  /// list reproduces the same placement.
  std::vector<std::string> backends;
  /// Ring points per backend; more points = smoother spread, slower
  /// membership changes.
  int virtual_nodes = 128;
  /// Mirror state-mutating verbs to the tenant's ring successor so its
  /// PolicyCache stays warm for failover.
  bool replicate = true;
  /// A replica that answers `overloaded` is retried (nothing was applied
  /// there) this many times before the mirror is abandoned — the client's
  /// response is held until the replica applied, which is what keeps the
  /// replica's state at or ahead of what clients have observed.
  int replica_retries = 200;
  int replica_retry_backoff_ms = 2;
  /// Health probes (`stats` with reserved correlation id 0) per backend;
  /// they keep traffic outstanding so the channel's response timeout can
  /// detect a wedged — not just dead — backend. 0 disables.
  int ping_interval_ms = 500;
  /// Start() waits up to this long for every backend channel to connect
  /// before serving (requests to still-down backends answer
  /// `backend_down`).
  int backend_connect_wait_ms = 10000;
  /// Per-backend channel tuning (window, queue bound, response timeout,
  /// reconnect backoff). max_frame_payload and poller_backend are
  /// propagated from `front`.
  net::FrameChannelOptions channel;
};

/// The cluster front door: the same client front end as AuditServer
/// (server/front_end.h: the same JSON/binary protocol, limits and drain)
/// on the client side, fanning requests out to N backend audit_server
/// processes over pipelined FrameChannels. Placement is
/// consistent hashing (HashRing) over the same FNV-1a tenant hash the
/// in-process shard routing uses; correlation ids are remapped per op
/// (client id ↔ router sub-id) so any number of client connections can
/// pipeline through shared backend connections.
///
/// Failover: each backend channel's up/down transitions add/remove its
/// node on the live ring. A down backend's in-flight ops are answered
/// `backend_down` (retryable; nothing was applied) and its tenants
/// re-route to their ring successor — the same node that `replicate` has
/// been mirroring their ingest/solve traffic to, so the successor serves
/// them from a warm PolicyCache instead of cold-solving.
///
/// Replication-order invariant: a mutating op is submitted replica-first,
/// and the client's response is released only once the replica has
/// *applied* it (`overloaded` mirrors are retried — `overloaded` means
/// not-applied). Since clients submit a tenant's next op only after the
/// previous response, the replica's applied state is always ≥ the state
/// any client has observed: after failover, tenant cycle numbers can jump
/// forward (a double-applied retry) but never regress, so per-tenant
/// order checks survive the switch. See docs/DESIGN.md "Cluster mode".
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  util::Status Start();
  util::Status Run();

  /// Signals Run() to begin the graceful drain. Async-signal-safe.
  void RequestStop() { front_.RequestStop(); }

  /// The bound client-facing port (valid after Start()).
  uint16_t port() const { return front_.port(); }

  /// Current live-ring owner of a tenant (-1 when no backend is up) and
  /// its replication target — test and capacity-planning hooks.
  int PrimaryBackendFor(const std::string& tenant);
  int SuccessorBackendFor(const std::string& tenant);

  /// Fresh stats body: router counters, ring membership, per-backend
  /// channel counters, aggregated reactor counters.
  util::JsonValue::Object StatsBody();

  /// The flat, gateable cluster report (BENCH_cluster.json body):
  /// forwarded/replicated/rerouted counts, failover booleans and the
  /// post-failover policy-source split.
  util::JsonValue::Object ReportBody();

 private:
  struct PendingOp {
    uint64_t conn_id = 0;
    int64_t client_id = -1;
    bool binary = false;
    Verb verb = Verb::kStats;
    std::string tenant;
    bool rerouted = false;
    int primary_backend = -1;
    /// -1 when the op is not mirrored (replication off, no successor, or
    /// the replica channel refused).
    int replica_backend = -1;
    bool primary_done = false;
    bool replica_done = false;
    /// True when the client was already answered directly (primary refused
    /// at submit time) and the op only lingers to consume the mirror's
    /// response.
    bool client_released = false;
    /// The id-rewritten response payload, ready to post once both legs
    /// settled.
    std::string primary_response;
    /// Kept for overloaded-mirror retries.
    std::string replica_payload;
    int replica_attempts = 0;
  };

  FrontEndHooks MakeHooks();
  /// Validates the backend list and starts one channel per backend.
  util::Status StartChannels();
  /// Shuts down and joins every backend channel.
  void StopChannels();
  void Route(Reactor& reactor, uint64_t conn_id, Request request,
             const std::string& payload);
  /// Response from backend `backend` (channel thread).
  void OnBackendFrame(size_t backend, std::string payload);
  /// Up/down transition of backend `backend` (channel thread).
  void OnBackendState(size_t backend, bool up);
  /// Tallies the policy sources of a rerouted solve's ok response — the
  /// warm-failover evidence.
  void CountRerouteSources(const PendingOp& op, const std::string& payload,
                           const util::JsonValue* doc);
  /// One `stats` ping per live backend (the on_tick hook).
  void PingBackends();

  RouterOptions options_;

  /// Declared before channels_ so the reactors (whose inboxes the channel
  /// callbacks post into) outlive the channel threads.
  FrontEnd front_;
  std::vector<std::unique_ptr<net::FrameChannel>> channels_;
  std::vector<std::string> backend_names_;

  /// Guards the live ring and the pending-op table; ordered before any
  /// channel's internal lock (Route submits while holding it) and never
  /// held across reactor/channel callbacks' own locks in the other
  /// direction (channel callbacks take it with no channel lock held).
  std::mutex mutex_;
  HashRing full_ring_;
  HashRing live_ring_;
  std::unordered_map<int64_t, PendingOp> ops_;
  int64_t next_op_id_ = 1;  // sub-ids start at 2; 0 is the ping id

  // Router counters (atomic; reported by stats and ReportBody).
  std::atomic<int64_t> forwarded_{0};
  std::atomic<int64_t> replicated_{0};
  std::atomic<int64_t> replica_retries_{0};
  std::atomic<int64_t> replication_skipped_{0};
  std::atomic<int64_t> replication_rejected_{0};
  std::atomic<int64_t> replication_abandoned_{0};
  std::atomic<int64_t> replication_errors_{0};
  std::atomic<int64_t> backend_down_replies_{0};
  std::atomic<int64_t> rerouted_ops_{0};
  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> stray_responses_{0};
  std::atomic<int64_t> backend_protocol_errors_{0};
  std::atomic<int64_t> post_failover_cache_hits_{0};
  std::atomic<int64_t> post_failover_warm_solves_{0};
  std::atomic<int64_t> post_failover_cold_solves_{0};
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_ROUTER_H_
