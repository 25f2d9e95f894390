#include "server/shard.h"

#include <cstdio>
#include <utility>

#include "core/game_io.h"
#include "server/binary_codec.h"
#include "util/serializer.h"

namespace auditgame::server {

Shard::Shard(int index, core::GameInstance base_instance,
             service::AuditServiceOptions service_options,
             size_t queue_capacity, size_t max_batch, Responder responder,
             std::function<void()> on_finished,
             std::unique_ptr<ShardPersistence> persistence)
    : index_(index),
      base_instance_(std::move(base_instance)),
      service_options_(std::move(service_options)),
      max_batch_(max_batch),
      queue_(queue_capacity),
      responder_(std::move(responder)),
      on_finished_(std::move(on_finished)),
      persistence_(std::move(persistence)) {}

Shard::~Shard() {
  queue_.Close();
  if (thread_.joinable()) thread_.join();
}

void Shard::Start() {
  thread_ = std::thread([this] { Run(); });
}

bool Shard::TrySubmit(ShardTask task) { return queue_.TryPush(std::move(task)); }

void Shard::Join() {
  if (thread_.joinable()) thread_.join();
}

void Shard::Run() {
  std::vector<ShardTask> batch;
  std::vector<Response> responses;
  while (queue_.PopBatch(max_batch_, &batch)) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++batches_;
    }
    // Durability order per micro-batch: append every state-mutating
    // payload to the WAL, apply, group-commit, and only then release the
    // responses — a response never races the record that makes it
    // replayable. WAL IO failure degrades durability, not availability:
    // the batch is still served, the error counted.
    if (persistence_ != nullptr) {
      for (const ShardTask& task : batch) {
        if (task.wal_payload.empty()) continue;
        if (auto lsn = persistence_->AppendWal(task.wal_payload); !lsn.ok()) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++wal_errors_;
        }
      }
    }
    responses.clear();
    responses.reserve(batch.size());
    for (const ShardTask& task : batch) Process(task, &responses);
    if (persistence_ != nullptr) {
      if (util::Status committed = persistence_->CommitBatch();
          !committed.ok()) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++wal_errors_;
      }
    }
    responder_(std::move(responses));
    responses = std::vector<Response>();
    if (persistence_ != nullptr && persistence_->ShouldSnapshot()) {
      // Serialization happens here on the shard thread (cheap, memory
      // only); the write+fsync runs on the persistence writer thread, so
      // the request path never blocks on snapshot IO.
      persistence_->SnapshotAsync(SerializeState(),
                                  persistence_->next_lsn() - 1);
    }
  }
  if (persistence_ != nullptr && persistence_->options().snapshot_on_drain) {
    // Clean drain: one synchronous snapshot so the next start restores
    // instead of replaying the whole WAL.
    if (util::Status status = persistence_->FinalSnapshot(
            SerializeState(), persistence_->next_lsn() - 1);
        !status.ok()) {
      std::fprintf(stderr, "shard %d: drain snapshot failed: %s\n", index_,
                   status.ToString().c_str());
    }
  }
  finished_.store(true, std::memory_order_release);
  if (on_finished_) on_finished_();
}

util::Fingerprint Shard::ConfigFingerprint() const {
  util::FingerprintBuilder fp;
  fp.AppendString("shard-config-v1");
  const util::Fingerprint service =
      service::FingerprintServiceConfig(service_options_);
  fp.AppendU64(service.hi);
  fp.AppendU64(service.lo);
  const util::Fingerprint game = core::FingerprintGame(base_instance_);
  fp.AppendU64(game.hi);
  fp.AppendU64(game.lo);
  return fp.Build();
}

void Shard::StreamState(util::Serializer& s) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  s.Section("shard", 2);
  util::Fingerprint config = ConfigFingerprint();
  const util::Fingerprint expected = config;
  s.Object(config);
  if (s.reading() && s.ok() && config != expected) {
    s.Fail(util::FailedPreconditionError(
        "shard " + std::to_string(index_) +
        ": snapshot was recorded under a different service configuration or "
        "base game (snapshot config " + config.ToHex() + ", this server " +
        expected.ToHex() + ") — refusing to restore"));
  }
  uint64_t num_tenants = tenants_.size();
  s.U64(num_tenants);
  if (s.reading()) {
    tenants_.clear();
    for (uint64_t i = 0; i < num_tenants && s.ok(); ++i) {
      std::string tenant;
      s.Str(tenant);
      auto service = std::make_unique<service::AuditService>(
          base_instance_, service_options_);
      s.Object(*service);
      if (s.ok()) tenants_.emplace(std::move(tenant), std::move(service));
    }
  } else {
    for (auto& [tenant, service] : tenants_) {
      std::string name = tenant;
      s.Str(name);
      s.Object(*service);
    }
  }
}

std::string Shard::SerializeState() {
  util::Serializer s = util::Serializer::Writer();
  StreamState(s);
  return s.TakeBuffer();
}

util::Fingerprint Shard::StateFingerprint() {
  util::FingerprintBuilder fp;
  fp.Append(SerializeState());
  return fp.Build();
}

util::Status Shard::ReplayWalPayload(const std::string& payload) {
  Request request;
  if (IsBinaryFrame(payload)) {
    ASSIGN_OR_RETURN(request, DecodeBinaryRequest(payload));
  } else {
    ASSIGN_OR_RETURN(const util::JsonValue doc, util::JsonValue::Parse(payload));
    ASSIGN_OR_RETURN(request, ParseRequest(doc));
  }
  // The original execution's response is gone with the crash; replay only
  // rebuilds state. A request that failed then fails identically now.
  std::vector<Response> discarded;
  Process(ShardTask{0, std::move(request), {}}, &discarded);
  return util::OkStatus();
}

util::Status Shard::Recover() {
  if (persistence_ == nullptr) return util::OkStatus();
  RETURN_IF_ERROR(persistence_->Recover(
      [this](const SnapshotContents& snapshot) {
        util::Serializer s = util::Serializer::Reader(snapshot.body);
        StreamState(s);
        s.ExpectExhausted();
        return s.status();
      },
      [this](const WalRecord& record) {
        return ReplayWalPayload(record.payload);
      }));
  persistence_->SetRecoveryFingerprint(StateFingerprint().ToHex());
  return util::OkStatus();
}

service::AuditService* Shard::TenantService(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second.get();
  auto service = std::make_unique<service::AuditService>(base_instance_,
                                                         service_options_);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  it = tenants_.emplace(tenant, std::move(service)).first;
  return it->second.get();
}

void Shard::Process(const ShardTask& task, std::vector<Response>* responses) {
  const Request& request = task.request;
  std::string response;
  switch (request.verb) {
    case Verb::kIngest: {
      service::AuditService* service = TenantService(request.tenant);
      // ParseRequest validated shape; the service validates semantics
      // (type count, pmf validity against the game). The response mirrors
      // the request's wire encoding (binary or JSON).
      util::Status status =
          service->UpdateAlertDistributions(request.distributions);
      if (status.ok()) {
        response = request.binary
                       ? EncodeBinaryIngestOkResponse(request.id, index_)
                       : MakeIngestOkResponse(request.id, request.tenant,
                                              index_);
      } else {
        response = request.binary
                       ? EncodeBinaryErrorResponse(request.id,
                                                   status.ToString())
                       : MakeErrorResponse(request.id, status.ToString());
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++processed_;
      ++ingests_;
      if (!status.ok()) ++request_errors_;
      break;
    }
    case Verb::kSolveCycle: {
      service::AuditService* service = TenantService(request.tenant);
      auto report = service->RunCycle();
      if (report.ok()) {
        // The adversary-loop observation channel: JSON-only, opt-in, and
        // computed after the cycle so the gated hot path (binary frames,
        // no flag) never pays for a detection model it didn't ask for.
        std::vector<std::vector<double>> detection_probs;
        const std::vector<std::vector<double>>* probs_ptr = nullptr;
        if (request.observe_policy && !request.binary) {
          detection_probs.reserve(report->policies.size());
          bool all_ok = true;
          for (const service::AuditService::CyclePolicy& policy :
               report->policies) {
            auto pal = service->MixedDetectionForPolicy(policy);
            if (!pal.ok()) {
              all_ok = false;
              break;
            }
            detection_probs.push_back(*std::move(pal));
          }
          if (all_ok) probs_ptr = &detection_probs;
        }
        response = request.binary
                       ? EncodeBinarySolveCycleResponse(request.id, index_,
                                                        *report)
                       : MakeSolveCycleResponse(request.id, request.tenant,
                                                index_, *report, probs_ptr);
      } else {
        response = request.binary
                       ? EncodeBinaryErrorResponse(request.id,
                                                   report.status().ToString())
                       : MakeErrorResponse(request.id,
                                           report.status().ToString());
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++processed_;
      ++solves_;
      if (report.ok()) {
        for (const service::AuditService::CyclePolicy& policy :
             report->policies) {
          switch (policy.source) {
            case service::AuditService::Source::kCache:
              ++policies_from_cache_;
              break;
            case service::AuditService::Source::kWarmSolve:
              ++warm_solves_;
              break;
            case service::AuditService::Source::kColdSolve:
              ++cold_solves_;
              break;
          }
        }
        solve_seconds_.Add(report->seconds);
      } else {
        ++request_errors_;
      }
      break;
    }
    case Verb::kStats: {
      // The IO thread answers stats inline; one reaching a shard is a bug.
      response = MakeErrorResponse(request.id, "stats is not a shard verb");
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++processed_;
      ++request_errors_;
      break;
    }
  }
  responses->push_back(Response{task.conn_id, std::move(response)});
}

ShardStatsSnapshot Shard::Snapshot() const {
  ShardStatsSnapshot snapshot;
  snapshot.shard = index_;
  snapshot.queue_depth = queue_.size();
  snapshot.queue_capacity = queue_.capacity();
  if (persistence_ != nullptr) {
    snapshot.durability = true;
    snapshot.persistence = persistence_->Stats();
  }
  std::unique_lock<std::mutex> lock(stats_mutex_);
  snapshot.tenants = static_cast<int64_t>(tenants_.size());
  snapshot.processed = processed_;
  snapshot.batches = batches_;
  snapshot.ingests = ingests_;
  snapshot.solves = solves_;
  snapshot.request_errors = request_errors_;
  snapshot.wal_errors = wal_errors_;
  snapshot.policies_from_cache = policies_from_cache_;
  snapshot.warm_solves = warm_solves_;
  snapshot.cold_solves = cold_solves_;
  // PolicyCache stats are internally synchronized; the map iteration is
  // what stats_mutex_ protects here.
  for (const auto& [tenant, service] : tenants_) {
    const service::PolicyCache::Stats cache = service->cache_stats();
    snapshot.cache.hits += cache.hits;
    snapshot.cache.misses += cache.misses;
    snapshot.cache.insertions += cache.insertions;
    snapshot.cache.evictions += cache.evictions;
  }
  const util::LatencyWindow solve_seconds = solve_seconds_;
  lock.unlock();
  snapshot.solve_seconds = solve_seconds.Summary();
  snapshot.solve_samples = solve_seconds.count();
  return snapshot;
}

}  // namespace auditgame::server
