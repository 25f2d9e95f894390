#ifndef AUDIT_GAME_SERVER_SHARD_H_
#define AUDIT_GAME_SERVER_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/game.h"
#include "server/bounded_queue.h"
#include "server/durability.h"
#include "server/protocol.h"
#include "service/audit_service.h"
#include "service/policy_cache.h"
#include "util/hash.h"
#include "util/percentile.h"

namespace auditgame::util {
class Serializer;
}  // namespace auditgame::util

namespace auditgame::server {

/// One queued unit of shard work: a validated request plus the connection
/// it came from (responses are routed back by connection id, which stays
/// valid even if the fd number is reused).
struct ShardTask {
  uint64_t conn_id = 0;
  Request request;
  /// Durability: the verbatim wire payload of a state-mutating request
  /// (ingest/solve_cycle), WAL-appended before the task is applied. Empty
  /// when durability is off or the verb carries no state. Verbatim bytes —
  /// not a re-encoding — so replay re-parses the identical input and
  /// reproduces state bit-for-bit.
  std::string wal_payload;
};

/// A point-in-time copy of one shard's counters, taken from the IO thread
/// for the `stats` verb while the shard keeps working. The counters are
/// not durable state: they count what this process applied, WAL replay
/// included, and restart with it.
struct ShardStatsSnapshot {
  int shard = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  int64_t tenants = 0;
  int64_t processed = 0;
  int64_t batches = 0;
  int64_t ingests = 0;
  int64_t solves = 0;
  int64_t request_errors = 0;
  /// Serving split summed over this shard's tenants (see
  /// AuditService::Source).
  int64_t policies_from_cache = 0;
  int64_t warm_solves = 0;
  int64_t cold_solves = 0;
  /// Cache counters summed over this shard's tenant services.
  service::PolicyCache::Stats cache;
  /// Percentiles over the most recent solve-cycle wall times (bounded
  /// window; `solve_samples` counts every solve of this process).
  util::Percentiles solve_seconds;
  int64_t solve_samples = 0;
  /// Durability (zero/empty when the shard runs without a data_dir).
  bool durability = false;
  int64_t wal_errors = 0;
  /// A WAL write or sync failed: the shard answers every request
  /// `overloaded` until the process restarts.
  bool wal_fenced = false;
  PersistenceStats persistence;
};

/// One shard of the AuditServer: a single worker thread owning the
/// AuditService of every tenant hashed to it, fed through a bounded MPSC
/// queue. The single-writer invariant the service documents is enforced
/// structurally — only this shard's thread ever touches its services, so
/// one tenant's cycles are applied in submission order while different
/// shards (hence different tenants) run concurrently.
///
/// The worker drains the queue in micro-batches (up to `max_batch` requests
/// per wakeup): one condvar round and one IO-thread wake per batch instead
/// of per request. Backpressure is the queue bound: TrySubmit() fails when
/// the shard is `queue_capacity` requests behind and the caller answers
/// `overloaded` — accepted work is never dropped, and memory never grows
/// with offered load.
class Shard {
 public:
  struct Response {
    uint64_t conn_id = 0;
    std::string payload;
  };

  /// Called from the shard thread with one micro-batch's responses — a
  /// single call per drained batch, so the server pays one response-queue
  /// lock and one poll-loop wake per batch, not per request. The server
  /// makes it thread-safe.
  using Responder = std::function<void(std::vector<Response> responses)>;

  /// `base_instance` seeds every tenant's game: a tenant's AuditService is
  /// created lazily on its first request and serves it until its first
  /// `ingest` replaces the alert distributions. Every tenant shares one
  /// copy of `base_instance` (its type names, audit costs and adversaries
  /// never change), the shard's one compile of it, and one copy of
  /// `service_options`.
  /// `on_finished` is invoked (on the shard thread) when the worker exits
  /// after a drain, so the server's poll loop can re-evaluate shutdown
  /// progress. `queue_capacity` and `max_batch` must
  /// be at least 1 (AuditServer::Start refuses less).
  Shard(int index, core::GameInstance base_instance,
        service::AuditServiceOptions service_options, size_t queue_capacity,
        size_t max_batch, Responder responder,
        std::function<void()> on_finished,
        std::unique_ptr<ShardPersistence> persistence = nullptr);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Restores state from the shard's data directory (newest valid
  /// snapshot, then the WAL suffix through the normal Process() path) and
  /// records the post-recovery state fingerprint. Must be called before
  /// Start(); no-op without persistence. A config-mismatch snapshot or a
  /// corrupt non-final segment refuses recovery rather than serving wrong
  /// state.
  util::Status Recover();

  void Start();

  /// Non-blocking enqueue from the IO thread; false = queue full or
  /// draining (caller sends `overloaded`).
  bool TrySubmit(ShardTask task);

  /// Closes the queue: the worker finishes what was accepted, then exits.
  void BeginDrain() { queue_.Close(); }

  /// Closes the queue and abandons its unstarted backlog (see
  /// BoundedQueue::DiscardPending) so Join() waits only for the in-flight
  /// request — the drain-deadline escape hatch.
  size_t DiscardPending() { return queue_.DiscardPending(); }

  /// True once the worker has drained and exited.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// Joins the worker (BeginDrain() must have been called).
  void Join();

  int index() const { return index_; }

  ShardStatsSnapshot Snapshot() const;

  /// Streams the shard's full durable state: a configuration-fingerprint
  /// guard (service options + base instance — state recorded under one
  /// configuration must not silently replay under another) and every
  /// tenant's AuditService. No counter or measurement is streamed.
  /// Thread-contract: shard thread, or any thread while the worker is not
  /// running (locks stats_mutex_ against Snapshot()).
  void StreamState(util::Serializer& s);

  /// Serialized StreamState bytes (the snapshot body).
  std::string SerializeState();

  /// Fingerprint of SerializeState(), the exact bytes a snapshot stores —
  /// equal across two independent recoveries of the same snapshot+WAL,
  /// the bit-for-bit verification hook. Same thread contract as
  /// StreamState().
  util::Fingerprint StateFingerprint();

  ShardPersistence* persistence() const { return persistence_.get(); }

  /// The base instance the tenants share.
  const core::GameInstance* base_instance() const {
    return base_instance_.get();
  }

  /// The compiled base game the tenants share; null when the base game
  /// does not compile (each tenant's cycle then reports why).
  const core::CompiledGame* base_game() const { return base_game_.get(); }

  /// The tenant's service, or null when the shard has none by that name.
  /// Same thread contract as StreamState().
  const service::AuditService* tenant(const std::string& name) const;

 private:
  void Run();
  /// Appends the batch's state-mutating payloads to the WAL and commits
  /// them. False when the shard is fenced: this batch or an earlier one
  /// failed to land, and nothing may be applied or acknowledged until
  /// restart. True without persistence.
  bool LogBatch(const std::vector<ShardTask>& batch);
  /// Re-parses one WAL payload exactly as the wire path would and applies
  /// it through Process() with the responses discarded.
  util::Status ReplayWalPayload(const std::string& payload);
  util::Fingerprint ConfigFingerprint() const;
  /// Executes one task, appending its response to the batch's output.
  void Process(const ShardTask& task, std::vector<Response>* responses);
  /// Looks up or lazily creates the tenant's service. Called only from the
  /// shard thread; creation locks stats_mutex_ so Snapshot() can iterate
  /// the map safely.
  service::AuditService* TenantService(const std::string& tenant);

  const int index_;
  const std::shared_ptr<const core::GameInstance> base_instance_;
  const std::shared_ptr<const service::AuditServiceOptions> service_options_;
  const std::shared_ptr<const core::CompiledGame> base_game_;
  const size_t max_batch_;
  BoundedQueue<ShardTask> queue_;
  Responder responder_;
  std::function<void()> on_finished_;
  /// Null when the server runs without durability.
  std::unique_ptr<ShardPersistence> persistence_;
  std::thread thread_;
  std::atomic<bool> finished_{false};

  /// Guards the counters, the latency window, and tenant-map mutations so
  /// Snapshot() (IO thread) never races the worker.
  mutable std::mutex stats_mutex_;
  std::map<std::string, std::unique_ptr<service::AuditService>> tenants_;
  // In-memory counters of this process (never streamed).
  int64_t processed_ = 0;
  int64_t batches_ = 0;
  int64_t ingests_ = 0;
  int64_t solves_ = 0;
  int64_t request_errors_ = 0;
  /// WAL append/commit failures (disk errors); the first one fences the
  /// shard, so the count is 0 or 1.
  int64_t wal_errors_ = 0;
  /// Set by the first WAL failure; written only by the shard thread.
  bool wal_fenced_ = false;
  int64_t policies_from_cache_ = 0;
  int64_t warm_solves_ = 0;
  int64_t cold_solves_ = 0;
  /// Recent solve-cycle wall times.
  util::LatencyWindow solve_seconds_{4096};
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_SHARD_H_
