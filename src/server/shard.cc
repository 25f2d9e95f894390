#include "server/shard.h"

#include <cstdio>
#include <utility>

#include "core/game_io.h"
#include "server/binary_codec.h"
#include "util/serializer.h"

namespace auditgame::server {

namespace {

/// Compile(instance), or null when it fails: the tenants then compile on
/// their own and report the error on every cycle, as a standalone service
/// would.
std::shared_ptr<const core::CompiledGame> CompileShared(
    const core::GameInstance& instance) {
  util::StatusOr<core::CompiledGame> compiled = core::Compile(instance);
  if (!compiled.ok()) return nullptr;
  return std::make_shared<const core::CompiledGame>(*std::move(compiled));
}

}  // namespace

Shard::Shard(int index, core::GameInstance base_instance,
             service::AuditServiceOptions service_options,
             size_t queue_capacity, size_t max_batch, Responder responder,
             std::function<void()> on_finished,
             std::unique_ptr<ShardPersistence> persistence)
    : index_(index),
      base_instance_(
          std::make_shared<const core::GameInstance>(std::move(base_instance))),
      service_options_(std::make_shared<const service::AuditServiceOptions>(
          std::move(service_options))),
      base_game_(CompileShared(*base_instance_)),
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
    responses.clear();
    responses.reserve(batch.size());
    // Durability order per micro-batch: append every state-mutating
    // payload to the WAL and group-commit, and only then apply the batch
    // and release its responses — an acknowledged request is a durable
    // one. A batch the WAL could not take is not applied: it is answered
    // `overloaded`, and so is everything after it (LogBatch).
    if (LogBatch(batch)) {
      for (const ShardTask& task : batch) Process(task, &responses);
    } else {
      for (const ShardTask& task : batch) {
        const Request& request = task.request;
        responses.push_back(Response{
            task.conn_id,
            EncodeBinaryOverloadedResponse(request.id, index_,
                                           request.verb)});
      }
    }
    responder_(std::move(responses));
    responses = std::vector<Response>();
    if (persistence_ != nullptr && !wal_fenced_ &&
        persistence_->ShouldSnapshot()) {
      // Serialization happens here on the shard thread (cheap, memory
      // only); the write+fsync runs on the persistence writer thread, so
      // the request path never blocks on snapshot IO.
      persistence_->SnapshotAsync(SerializeState(),
                                  persistence_->next_lsn() - 1);
    }
  }
  if (persistence_ != nullptr && persistence_->options().snapshot_on_drain &&
      !wal_fenced_) {
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

bool Shard::LogBatch(const std::vector<ShardTask>& batch) {
  if (persistence_ == nullptr) return true;
  if (wal_fenced_) return false;
  util::Status status = util::OkStatus();
  for (const ShardTask& task : batch) {
    if (task.wal_payload.empty()) continue;
    status = persistence_->AppendWal(task.wal_payload).status();
    if (!status.ok()) break;
  }
  if (status.ok()) status = persistence_->CommitBatch();
  if (status.ok()) return true;
  // A failed write may have left part of the batch on disk, and a failed
  // fdatasync may have dropped dirty pages a later sync would not report,
  // so no later record is trusted to land after it. Only a restart, which
  // recovers the durable prefix, serves this shard's tenants again.
  std::fprintf(stderr,
               "shard %d: WAL write failed, fencing the shard until "
               "restart: %s\n",
               index_, status.ToString().c_str());
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++wal_errors_;
  wal_fenced_ = true;
  return false;
}

util::Fingerprint Shard::ConfigFingerprint() const {
  util::FingerprintBuilder fp;
  fp.AppendString("shard-config-v1");
  const util::Fingerprint service =
      service::FingerprintServiceConfig(*service_options_);
  fp.AppendU64(service.hi);
  fp.AppendU64(service.lo);
  const util::Fingerprint game = core::FingerprintGame(*base_instance_);
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
          base_instance_, service_options_, base_game_);
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
  // The WAL holds the verbatim binary frames of applied requests; any
  // record that does not decode fails recovery rather than being skipped.
  ASSIGN_OR_RETURN(Request request, DecodeBinaryRequest(payload));
  // The original execution's response is gone with the crash; replay only
  // rebuilds state, so it skips the observe_policy detection models. A
  // request that failed then fails identically now.
  request.observe_policy = false;
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

const service::AuditService* Shard::tenant(const std::string& name) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

service::AuditService* Shard::TenantService(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second.get();
  auto service = std::make_unique<service::AuditService>(
      base_instance_, service_options_, base_game_);
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
      // The decoder validated shape; the service validates semantics
      // (type count, pmf validity against the game).
      util::Status status =
          service->UpdateAlertDistributions(request.distributions);
      response = status.ok()
                     ? EncodeBinaryIngestOkResponse(request.id, index_)
                     : EncodeBinaryErrorResponse(request.id, status.ToString());
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
        // The adversary-loop observation channel: opt-in and computed
        // after the cycle, so an ordinary solve_cycle never pays for a
        // detection model it didn't ask for.
        std::vector<std::vector<double>> detection_probs;
        const std::vector<std::vector<double>>* probs_ptr = nullptr;
        if (request.observe_policy) {
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
        response = EncodeBinarySolveCycleResponse(request.id, index_,
                                                  *report, probs_ptr);
      } else {
        response =
            EncodeBinaryErrorResponse(request.id, report.status().ToString());
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
  snapshot.wal_fenced = wal_fenced_;
  snapshot.policies_from_cache = policies_from_cache_;
  snapshot.warm_solves = warm_solves_;
  snapshot.cold_solves = cold_solves_;
  // PolicyCache stats are internally synchronized; the map iteration is
  // what stats_mutex_ protects here.
  for (const auto& [tenant, service] : tenants_) {
    snapshot.cache += service->cache_stats();
  }
  const util::LatencyWindow solve_seconds = solve_seconds_;
  lock.unlock();
  snapshot.solve_seconds = solve_seconds.Summary();
  snapshot.solve_samples = solve_seconds.count();
  return snapshot;
}

}  // namespace auditgame::server
