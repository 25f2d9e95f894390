#include "server/audit_server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "server/binary_codec.h"
#include "util/hash.h"

namespace auditgame::server {

void DefineServiceFlags(util::FlagParser& flags) {
  flags.Define("budgets", "6,10",
               "distinct budgets served per solve_cycle, each >= 0");
  flags.Define("eps", "0.25", "ISHM step size, in (0, 1)");
  flags.Define("warm_max_drift", "0.25",
               "drift threshold above which re-solves are cold");
}

util::StatusOr<service::AuditServiceOptions> ServiceOptionsFromFlags(
    const util::FlagParser& flags) {
  service::AuditServiceOptions options;
  ASSIGN_OR_RETURN(options.budgets, flags.GetNonEmptyList<double>("budgets"));
  for (auto it = options.budgets.begin(); it != options.budgets.end(); ++it) {
    if (!(*it >= 0.0)) {
      return util::InvalidArgumentError("--budgets must be >= 0, got " +
                                        flags.GetString("budgets"));
    }
    // A repeated budget would be solved twice per cold cycle: every cache
    // miss is queued before any solve fills the cache.
    if (std::find(options.budgets.begin(), it, *it) != it) {
      return util::InvalidArgumentError("--budgets lists a budget twice, got " +
                                        flags.GetString("budgets"));
    }
  }
  const double eps = flags.GetDouble("eps");
  if (!(eps > 0.0 && eps < 1.0)) {
    return util::InvalidArgumentError("--eps must be in (0, 1), got " +
                                      flags.GetString("eps"));
  }
  options.solver_options.ishm.step_size = eps;
  // Parsed here, not by GetDouble, so a NaN is refused rather than fatal.
  const util::StatusOr<double> drift =
      util::ParseFullDouble(flags.GetString("warm_max_drift"));
  if (!drift.ok() || !(*drift >= 0.0)) {
    return util::InvalidArgumentError("--warm_max_drift must be >= 0, got " +
                                      flags.GetString("warm_max_drift"));
  }
  options.warm_start_max_drift = *drift;
  return options;
}

void DefineAuditServerFlags(util::FlagParser& flags) {
  flags.Define("shards", "4", "shard worker threads");
  flags.Define("queue_capacity", "128",
               "per-shard request-queue bound (full queue => overloaded)");
  flags.Define("batch", "16", "max requests drained per shard wakeup");
  DefineServiceFlags(flags);
}

util::StatusOr<AuditServerOptions> AuditServerOptionsFromFlags(
    const util::FlagParser& flags) {
  AuditServerOptions options;
  ASSIGN_OR_RETURN(options.num_shards, flags.GetIntAtLeast("shards", 1));
  ASSIGN_OR_RETURN(const int queue_capacity,
                   flags.GetIntAtLeast("queue_capacity", 1));
  options.queue_capacity = static_cast<size_t>(queue_capacity);
  ASSIGN_OR_RETURN(const int batch, flags.GetIntAtLeast("batch", 1));
  options.max_batch = static_cast<size_t>(batch);
  ASSIGN_OR_RETURN(options.service, ServiceOptionsFromFlags(flags));
  return options;
}

AuditServer::AuditServer(core::GameInstance base_instance,
                         AuditServerOptions options)
    : options_(std::move(options)),
      base_instance_(std::move(base_instance)),
      front_(options_.front, MakeHooks()) {}

FrontEndHooks AuditServer::MakeHooks() {
  FrontEndHooks hooks;
  hooks.on_request = [this](Reactor& reactor, uint64_t conn_id,
                            Request request, const std::string& payload) {
    Dispatch(reactor, conn_id, std::move(request), payload);
  };
  hooks.stats_body = [this] { return StatsSnapshotBody(); };
  // Closing the shard queues turns every later request into `overloaded`;
  // accepted work still finishes.
  hooks.on_drain = [this] {
    for (auto& shard : shards_) shard->BeginDrain();
  };
  hooks.on_deadline = [this] {
    for (auto& shard : shards_) shard->DiscardPending();
  };
  hooks.on_tick = [this] { RefreshStatsSnapshot(); };
  hooks.tick_ms = options_.stats_refresh_ms;
  hooks.stop_workers = [this] { StopShards(); };
  return hooks;
}

AuditServer::~AuditServer() {
  // Shard responders post into reactor inboxes, so the shards stop while
  // the reactors (destroyed with front_) are still alive. On paths where
  // Run() completed this is all no-ops.
  StopShards();
}

void AuditServer::StopShards() {
  // Nothing can be delivered anymore, so shard backlogs are discarded, not
  // drained.
  for (auto& shard : shards_) shard->DiscardPending();
  for (auto& shard : shards_) shard->Join();
}

size_t AuditServer::ShardForTenant(const std::string& tenant,
                                   size_t num_shards) {
  util::Fnv1a hasher;
  hasher.AppendString(tenant);
  return static_cast<size_t>(hasher.value() % num_shards);
}

util::Status AuditServer::Start() {
  if (options_.num_shards < 1 || options_.queue_capacity < 1 ||
      options_.max_batch < 1 || options_.stats_refresh_ms < 1 ||
      options_.service.cache_entries_per_budget < 1 ||
      options_.service.budgets.empty() ||
      (options_.durability.enabled() &&
       options_.durability.snapshots_to_keep < 1)) {
    return util::InvalidArgumentError(
        "num_shards, queue_capacity, max_batch, stats_refresh_ms, "
        "cache_entries_per_budget, the budget count and, with a data dir, "
        "snapshots_to_keep must each be at least 1");
  }
  return front_.Start([this] { return StartShards(); });
}

util::Status AuditServer::StartShards() {
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, base_instance_, options_.service, options_.queue_capacity,
        options_.max_batch,
        [this](std::vector<Shard::Response> batch) {
          front_.PostResponses(std::move(batch));
        },
        [this] { front_.Wake(); },
        options_.durability.enabled()
            ? std::make_unique<ShardPersistence>(i, options_.durability)
            : nullptr));
  }

  // Recover every shard before a single connection is accepted (and before
  // the shard threads start — recovery owns the shard state exclusively).
  // A failure here aborts startup: serving from wrong state is worse than
  // not serving.
  for (auto& shard : shards_) {
    RETURN_IF_ERROR(shard->Recover());
  }
  for (auto& shard : shards_) shard->Start();
  RefreshStatsSnapshot();
  return util::OkStatus();
}

util::Status AuditServer::Run() {
  util::Status status = front_.Run();
  RefreshStatsSnapshot();  // final numbers for StatsBody() callers
  return status;
}

void AuditServer::Dispatch(Reactor& reactor, uint64_t conn_id,
                           Request request, const std::string& payload) {
  const size_t shard = ShardForTenant(request.tenant, shards_.size());
  const int64_t id = request.id;
  const Verb verb = request.verb;
  ShardTask task{conn_id, std::move(request), {}};
  // WAL the verbatim binary frames of state-mutating verbs (every verb
  // that reaches a shard): replay decodes the identical input, so
  // recovered state matches bit-for-bit.
  if (options_.durability.enabled()) task.wal_payload = payload;
  // During a drain the queues are closed, so TrySubmit fails and the
  // client gets the same retryable `overloaded` a full queue produces.
  if (!shards_[shard]->TrySubmit(std::move(task))) {
    reactor.CountOverloaded();
    reactor.Reply(conn_id, EncodeBinaryOverloadedResponse(
                               id, static_cast<int>(shard), verb));
    return;
  }
  reactor.OnSubmitted(conn_id);  // settled by the shard's response
}

util::JsonValue::Object AuditServer::StatsSnapshotBody() {
  std::shared_ptr<const util::JsonValue::Object> snapshot;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot = stats_snapshot_;
  }
  if (!snapshot) return util::JsonValue::Object{};
  return *snapshot;  // copy; the shared body itself is immutable
}

void AuditServer::RefreshStatsSnapshot() {
  auto body =
      std::make_shared<const util::JsonValue::Object>(StatsBody());
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  stats_snapshot_ = std::move(body);
}

util::JsonValue::Object AuditServer::StatsBody() {
  util::JsonValue::Object server = front_.ServerStats();
  server["shards"] = static_cast<int>(shards_.size());
  util::JsonValue::Object body;
  body["server"] = std::move(server);

  util::JsonValue::Array shards;
  shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ShardStatsSnapshot s = shard->Snapshot();
    util::JsonValue::Object obj;
    obj["shard"] = s.shard;
    obj["queue_depth"] = static_cast<double>(s.queue_depth);
    obj["queue_capacity"] = static_cast<double>(s.queue_capacity);
    obj["tenants"] = static_cast<double>(s.tenants);
    obj["processed"] = static_cast<double>(s.processed);
    obj["batches"] = static_cast<double>(s.batches);
    obj["ingests"] = static_cast<double>(s.ingests);
    obj["solves"] = static_cast<double>(s.solves);
    obj["request_errors"] = static_cast<double>(s.request_errors);
    obj["policies_from_cache"] = static_cast<double>(s.policies_from_cache);
    obj["warm_solves"] = static_cast<double>(s.warm_solves);
    obj["cold_solves"] = static_cast<double>(s.cold_solves);
    util::JsonValue::Object cache;
    cache["hits"] = static_cast<double>(s.cache.hits);
    cache["misses"] = static_cast<double>(s.cache.misses);
    cache["insertions"] = static_cast<double>(s.cache.insertions);
    cache["evictions"] = static_cast<double>(s.cache.evictions);
    util::JsonValue::Object reuse_distance;
    for (size_t i = 0; i < service::PolicyCache::kReuseBuckets; ++i) {
      reuse_distance[service::PolicyCache::ReuseBucketLabel(i)] =
          static_cast<double>(s.cache.reuse_distance[i]);
    }
    cache["reuse_distance"] = std::move(reuse_distance);
    obj["policy_cache"] = std::move(cache);
    obj["solve_seconds_p50"] = s.solve_seconds.p50;
    obj["solve_seconds_p90"] = s.solve_seconds.p90;
    obj["solve_seconds_p99"] = s.solve_seconds.p99;
    obj["solve_seconds_max"] = s.solve_seconds.max;
    obj["solve_samples"] = static_cast<double>(s.solve_samples);
    obj["durability"] = s.durability;
    if (s.durability) {
      obj["wal_errors"] = static_cast<double>(s.wal_errors);
      obj["wal_fenced"] = s.wal_fenced;
      util::JsonValue::Object persistence;
      persistence["last_snapshot_seq"] =
          static_cast<double>(s.persistence.last_snapshot_seq);
      persistence["last_snapshot_bytes"] =
          static_cast<double>(s.persistence.last_snapshot_bytes);
      persistence["wal_records"] =
          static_cast<double>(s.persistence.wal_records);
      persistence["wal_bytes"] = static_cast<double>(s.persistence.wal_bytes);
      persistence["wal_segments"] =
          static_cast<double>(s.persistence.wal_segments);
      persistence["snapshots_written"] =
          static_cast<double>(s.persistence.snapshots_written);
      persistence["wal_syncs"] = static_cast<double>(s.persistence.wal_syncs);
      persistence["fsync_seconds_p50"] = s.persistence.fsync_seconds.p50;
      persistence["fsync_seconds_p90"] = s.persistence.fsync_seconds.p90;
      persistence["fsync_seconds_p99"] = s.persistence.fsync_seconds.p99;
      persistence["fsync_seconds_max"] = s.persistence.fsync_seconds.max;
      persistence["recovery_replayed"] =
          static_cast<double>(s.persistence.recovery_replayed);
      persistence["recovery_seconds"] = s.persistence.recovery_seconds;
      persistence["recovery_wal_lsn"] =
          static_cast<double>(s.persistence.recovery_wal_lsn);
      persistence["recovery_fingerprint"] = s.persistence.recovery_fingerprint;
      persistence["wal_sync"] = s.persistence.wal_sync;
      obj["persistence"] = std::move(persistence);
    }
    shards.push_back(std::move(obj));
  }
  body["shards"] = std::move(shards);
  return body;
}

}  // namespace auditgame::server
