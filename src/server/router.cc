#include "server/router.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "server/binary_codec.h"

namespace auditgame::server {

void DefineRouterFlags(util::FlagParser& flags) {
  flags.Define("backends", "",
               "comma-separated backend audit_server addresses "
               "(host:port,host:port,...); list order is the ring identity");
  flags.Define("vnodes", "128", "virtual nodes per backend on the hash ring");
  flags.Define("replicate", "1",
               "mirror ingest/solve_cycle to each tenant's ring successor "
               "(warm failover); 0 = route only");
  flags.Define("replica_retries", "200",
               "overloaded-mirror retry budget per op (the client response "
               "is held until the mirror applied)");
  flags.Define("replica_retry_backoff_ms", "2",
               "delay between overloaded-mirror retries");
  flags.Define("window", "256",
               "per-backend in-flight frame window (pipelining depth)");
  flags.Define("backend_queue", "4096",
               "per-backend accepted-but-unanswered bound (beyond it new "
               "requests answer overloaded)");
  flags.Define("backend_timeout_ms", "5000",
               "no response from a backend for this long => drop the "
               "connection and fail over");
  flags.Define("ping_interval_ms", "500",
               "stats-ping period per backend (keeps the response-timeout "
               "health check armed); 0 = off");
  flags.Define("backend_wait_ms", "10000",
               "startup grace for backends to come up before serving");
}

util::StatusOr<RouterOptions> RouterOptionsFromFlags(
    const util::FlagParser& flags) {
  RouterOptions options;
  std::stringstream backends(flags.GetString("backends"));
  for (std::string item; std::getline(backends, item, ',');) {
    if (!item.empty()) options.backends.push_back(item);
  }
  if (options.backends.empty()) {
    return util::InvalidArgumentError(
        "--backends must name at least one host:port");
  }
  ASSIGN_OR_RETURN(options.virtual_nodes, flags.GetIntAtLeast("vnodes", 1));
  options.replicate = flags.GetInt("replicate") != 0;
  ASSIGN_OR_RETURN(options.replica_retries,
                   flags.GetIntAtLeast("replica_retries", 0));
  ASSIGN_OR_RETURN(options.replica_retry_backoff_ms,
                   flags.GetIntAtLeast("replica_retry_backoff_ms", 1));
  ASSIGN_OR_RETURN(options.ping_interval_ms,
                   flags.GetIntAtLeast("ping_interval_ms", 0));
  ASSIGN_OR_RETURN(options.backend_connect_wait_ms,
                   flags.GetIntAtLeast("backend_wait_ms", 0));
  ASSIGN_OR_RETURN(options.channel.window, flags.GetIntAtLeast("window", 1));
  ASSIGN_OR_RETURN(const int backend_queue,
                   flags.GetIntAtLeast("backend_queue", 1));
  options.channel.queue_capacity = static_cast<size_t>(backend_queue);
  ASSIGN_OR_RETURN(options.channel.response_timeout_ms,
                   flags.GetIntAtLeast("backend_timeout_ms", 1));
  return options;
}

Router::Router(RouterOptions options)
    : options_(std::move(options)), front_(options_.front, MakeHooks()) {}

Router::~Router() {
  // Channel threads call back into this object and post into reactor
  // inboxes, so they stop while the reactors (destroyed with front_) are
  // still alive.
  StopChannels();
}

FrontEndHooks Router::MakeHooks() {
  FrontEndHooks hooks;
  hooks.on_request = [this](Reactor& reactor, uint64_t conn_id,
                            Request request, const std::string& payload) {
    Route(reactor, conn_id, std::move(request), payload);
  };
  hooks.stats_body = [this] { return StatsBody(); };
  // No drain hooks: Route() refuses new work itself once the front end is
  // draining, and ops already forwarded settle through their channels.
  if (options_.ping_interval_ms > 0) {
    hooks.on_tick = [this] { PingBackends(); };
    hooks.tick_ms = options_.ping_interval_ms;
  }
  hooks.stop_workers = [this] { StopChannels(); };
  return hooks;
}

void Router::StopChannels() {
  for (auto& channel : channels_) channel->BeginShutdown();
  for (auto& channel : channels_) channel->Join();
}

util::Status Router::Start() {
  const net::FrameChannelOptions& channel = options_.channel;
  if (options_.virtual_nodes < 1 || options_.replica_retries < 0 ||
      options_.replica_retry_backoff_ms < 1 || options_.ping_interval_ms < 0 ||
      options_.backend_connect_wait_ms < 0 || channel.window < 1 ||
      channel.queue_capacity < 1 || channel.response_timeout_ms < 1 ||
      channel.reconnect_backoff_min_ms < 1 ||
      channel.reconnect_backoff_max_ms < channel.reconnect_backoff_min_ms) {
    return util::InvalidArgumentError(
        "virtual_nodes, replica_retry_backoff_ms, the channel window, "
        "queue_capacity, response_timeout_ms and reconnect_backoff_min_ms "
        "must each be at least 1; replica_retries, ping_interval_ms and "
        "backend_connect_wait_ms at least 0; reconnect_backoff_max_ms at "
        "least reconnect_backoff_min_ms");
  }
  full_ring_ = HashRing(options_.virtual_nodes);
  live_ring_ = HashRing(options_.virtual_nodes);
  return front_.Start([this] { return StartChannels(); });
}

util::Status Router::StartChannels() {
  if (options_.backends.empty()) {
    return util::InvalidArgumentError("router needs at least one backend");
  }

  std::vector<net::HostPort> backend_addrs;
  backend_addrs.reserve(options_.backends.size());
  for (size_t i = 0; i < options_.backends.size(); ++i) {
    auto address = net::ParseHostPort(options_.backends[i]);
    if (!address.ok()) {
      return util::InvalidArgumentError("bad backend address: " +
                                        address.status().message());
    }
    backend_addrs.push_back(std::move(*address));
    backend_names_.push_back(options_.backends[i]);
    full_ring_.AddNode(static_cast<int>(i), options_.backends[i]);
  }

  net::FrameChannelOptions channel_options = options_.channel;
  channel_options.max_frame_payload = options_.front.max_frame_payload;
  channels_.reserve(backend_addrs.size());
  for (size_t i = 0; i < backend_addrs.size(); ++i) {
    net::FrameChannel::Events events;
    events.on_frame = [this, i](std::string payload) {
      OnBackendFrame(i, std::move(payload));
    };
    events.on_state = [this, i](bool up) { OnBackendState(i, up); };
    channels_.push_back(std::make_unique<net::FrameChannel>(
        backend_addrs[i].host, backend_addrs[i].port, channel_options,
        std::move(events)));
  }
  for (auto& channel : channels_) {
    RETURN_IF_ERROR(channel->Start());
  }

  // Give the backends a moment to come up; serving starts regardless
  // (still-down backends answer `backend_down` until they connect).
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.backend_connect_wait_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const bool all_up =
        std::all_of(channels_.begin(), channels_.end(),
                    [](const auto& channel) { return channel->up(); });
    if (all_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return util::OkStatus();
}

util::Status Router::Run() { return front_.Run(); }

int Router::PrimaryBackendFor(const std::string& tenant) {
  const uint64_t point = HashRing::PointForTenant(tenant);
  std::lock_guard<std::mutex> lock(mutex_);
  return live_ring_.PrimaryFor(point);
}

int Router::SuccessorBackendFor(const std::string& tenant) {
  const uint64_t point = HashRing::PointForTenant(tenant);
  std::lock_guard<std::mutex> lock(mutex_);
  return live_ring_.SuccessorFor(point);
}

void Router::PingBackends() {
  for (auto& channel : channels_) {
    if (channel->up()) {
      // Correlation id 0 is reserved for pings; OnBackendFrame swallows
      // the response. A refusal is fine — the point is keeping traffic
      // outstanding on healthy channels.
      (void)channel->TrySubmit(MakeStatsRequest(0));
    }
  }
}

void Router::Route(Reactor& reactor, uint64_t conn_id, Request request,
                   const std::string& payload) {
  const int64_t client_id = request.id;

  if (front_.draining()) {
    // Same retryable refusal a draining AuditServer produces.
    reactor.CountOverloaded();
    reactor.Reply(conn_id, EncodeBinaryOverloadedResponse(client_id, -1,
                                                          request.verb));
    return;
  }

  const uint64_t point = HashRing::PointForTenant(request.tenant);

  std::unique_lock<std::mutex> lock(mutex_);
  const int primary = live_ring_.PrimaryFor(point);
  if (primary < 0) {
    lock.unlock();
    backend_down_replies_.fetch_add(1, std::memory_order_relaxed);
    reactor.Reply(conn_id,
                  EncodeBinaryBackendDownResponse(client_id, request.verb));
    return;
  }

  PendingOp op;
  op.conn_id = conn_id;
  op.client_id = client_id;
  op.verb = request.verb;
  op.rerouted = primary != full_ring_.PrimaryFor(point);
  op.primary_backend = primary;

  const int64_t op_id = next_op_id_++;
  const int64_t primary_sub = op_id << 1;
  const int64_t replica_sub = primary_sub | 1;

  // The forwarded payloads: the client's frame with the id patched in
  // place (fixed offset); the body is never re-encoded.
  std::string primary_payload = payload;
  RewriteBinaryCorrelationId(&primary_payload, primary_sub);

  // Replica-first submission: if the mirror cannot even be queued the op
  // is refused outright (nothing applied anywhere), and if the primary
  // then fails the mirror still applies — the replica may run ahead of
  // clients but never behind, which is the failover-order invariant.
  const int replica =
      options_.replicate ? live_ring_.SuccessorFor(point) : -1;
  if (replica >= 0) {
    // The mirror only rebuilds state and its response is dropped, so it
    // never asks for the observe_policy detection section.
    std::string replica_payload =
        request.observe_policy
            ? EncodeBinarySolveCycleRequest(replica_sub, request.tenant)
            : payload;
    RewriteBinaryCorrelationId(&replica_payload, replica_sub);
    const auto submitted = channels_[replica]->TrySubmit(replica_payload);
    if (submitted == net::FrameChannel::Submit::kAccepted) {
      op.replica_backend = replica;
      op.replica_payload = std::move(replica_payload);
      replicated_.fetch_add(1, std::memory_order_relaxed);
    } else if (submitted == net::FrameChannel::Submit::kFull) {
      // Backpressure before anything was applied: cleanly retryable.
      lock.unlock();
      replication_rejected_.fetch_add(1, std::memory_order_relaxed);
      reactor.CountOverloaded();
      reactor.Reply(conn_id,
                    EncodeBinaryOverloadedResponse(client_id, -1, op.verb));
      return;
    } else {
      // Successor unreachable: serve unmirrored rather than not at all.
      replication_skipped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  op.replica_done = op.replica_backend < 0;

  const auto submitted = channels_[primary]->TrySubmit(std::move(primary_payload));
  if (submitted != net::FrameChannel::Submit::kAccepted) {
    const bool full = submitted == net::FrameChannel::Submit::kFull;
    std::string reply =
        full ? EncodeBinaryOverloadedResponse(client_id, -1, op.verb)
             : EncodeBinaryBackendDownResponse(client_id, op.verb);
    if (op.replica_backend >= 0) {
      // The mirror is already on its way; keep the op (released) so its
      // response has a home, then answer the client right now.
      op.primary_done = true;
      op.client_released = true;
      ops_.emplace(op_id, std::move(op));
    }
    lock.unlock();
    if (full) {
      reactor.CountOverloaded();
    } else {
      backend_down_replies_.fetch_add(1, std::memory_order_relaxed);
    }
    reactor.Reply(conn_id, reply);
    return;
  }

  forwarded_.fetch_add(1, std::memory_order_relaxed);
  if (op.rerouted) rerouted_ops_.fetch_add(1, std::memory_order_relaxed);
  ops_.emplace(op_id, std::move(op));
  lock.unlock();
  reactor.OnSubmitted(conn_id);  // settled by the posted response
}

void Router::CountRerouteSources(const std::string& payload) {
  auto response = DecodeBinaryResponse(payload);
  if (!response.ok() || response->status != kBinaryStatusOk) return;
  for (const BinaryPolicy& policy : response->policies) {
    switch (policy.source) {
      case service::AuditService::Source::kCache:
        post_failover_cache_hits_.fetch_add(1, std::memory_order_relaxed);
        break;
      case service::AuditService::Source::kWarmSolve:
        post_failover_warm_solves_.fetch_add(1, std::memory_order_relaxed);
        break;
      case service::AuditService::Source::kColdSolve:
        post_failover_cold_solves_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
}

void Router::OnBackendFrame(size_t backend, std::string payload) {
  (void)backend;
  // The router sends backends binary hot verbs and JSON `stats` pings
  // (correlation id 0), so a JSON frame is a ping reply.
  if (!IsBinaryFrame(payload)) return;
  const int64_t sub_id = BinaryCorrelationIdOf(payload);
  if (sub_id <= 0) {
    backend_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const int64_t op_id = sub_id >> 1;
  const bool is_replica = (sub_id & 1) != 0;

  std::vector<Shard::Response> releases;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ops_.find(op_id);
    if (it == ops_.end()) {
      stray_responses_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    PendingOp& op = it->second;

    if (is_replica) {
      if (op.replica_done) {
        stray_responses_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const int status = BinaryResponseStatusOf(payload);
      const bool overloaded = status == kBinaryStatusOverloaded;
      const bool error = status != kBinaryStatusOk && !overloaded;
      if (overloaded && !op.client_released &&
          op.replica_attempts < options_.replica_retries &&
          op.replica_backend >= 0) {
        // `overloaded` means not-applied: retry until the mirror lands so
        // the replica never falls behind what the client will observe.
        ++op.replica_attempts;
        const auto retried = channels_[op.replica_backend]->TrySubmitAfter(
            op.replica_payload, options_.replica_retry_backoff_ms);
        if (retried == net::FrameChannel::Submit::kAccepted) {
          replica_retries_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        replication_abandoned_.fetch_add(1, std::memory_order_relaxed);
      } else if (overloaded) {
        replication_abandoned_.fetch_add(1, std::memory_order_relaxed);
      } else if (error) {
        replication_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      op.replica_done = true;
      op.replica_payload.clear();
    } else {
      if (op.primary_done) {
        stray_responses_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (op.rerouted && op.verb == Verb::kSolveCycle) {
        CountRerouteSources(payload);
      }
      RewriteBinaryCorrelationId(&payload, op.client_id);
      op.primary_response = std::move(payload);
      op.primary_done = true;
    }

    if (op.primary_done && op.replica_done) {
      if (!op.client_released) {
        releases.push_back(
            Shard::Response{op.conn_id, std::move(op.primary_response)});
      }
      ops_.erase(it);
    }
  }
  front_.PostResponses(std::move(releases));
}

void Router::OnBackendState(size_t backend, bool up) {
  std::vector<Shard::Response> releases;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (up) {
      live_ring_.AddNode(static_cast<int>(backend), backend_names_[backend]);
      return;
    }
    const bool was_live = live_ring_.HasNode(static_cast<int>(backend));
    live_ring_.RemoveNode(static_cast<int>(backend));
    // Channels are torn down as part of the router's own graceful stop;
    // only a live backend lost mid-service counts as a failover.
    if (was_live && !front_.draining()) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }

    // Every op with a leg on this backend just lost it: the channel
    // dropped its queue, so no response will ever come. Resolve them now —
    // primaries answer `backend_down` (retryable), mirrors are abandoned.
    for (auto it = ops_.begin(); it != ops_.end();) {
      PendingOp& op = it->second;
      if (op.replica_backend == static_cast<int>(backend) &&
          !op.replica_done) {
        op.replica_done = true;
        op.replica_payload.clear();
        replication_abandoned_.fetch_add(1, std::memory_order_relaxed);
      }
      if (op.primary_backend == static_cast<int>(backend) &&
          !op.primary_done) {
        op.primary_done = true;
        op.primary_response =
            EncodeBinaryBackendDownResponse(op.client_id, op.verb);
        backend_down_replies_.fetch_add(1, std::memory_order_relaxed);
      }
      if (op.primary_done && op.replica_done) {
        if (!op.client_released) {
          releases.push_back(
              Shard::Response{op.conn_id, std::move(op.primary_response)});
        }
        it = ops_.erase(it);
      } else {
        ++it;
      }
    }
  }
  front_.PostResponses(std::move(releases));
}

util::JsonValue::Object Router::StatsBody() {
  util::JsonValue::Object server = front_.ServerStats();
  server["role"] = "router";
  util::JsonValue::Object body;
  body["server"] = std::move(server);

  util::JsonValue::Object router = ReportBody();
  size_t live = 0;
  size_t pending_ops = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live = live_ring_.size();
    pending_ops = ops_.size();
  }
  router["live_backends"] = static_cast<double>(live);
  router["pending_ops"] = static_cast<double>(pending_ops);

  util::JsonValue::Array backends;
  backends.reserve(channels_.size());
  for (size_t i = 0; i < channels_.size(); ++i) {
    const auto& channel = channels_[i];
    util::JsonValue::Object obj;
    obj["backend"] = static_cast<int>(i);
    obj["address"] = backend_names_[i];
    obj["up"] = channel->up();
    obj["frames_sent"] = static_cast<double>(channel->frames_sent());
    obj["frames_received"] = static_cast<double>(channel->frames_received());
    obj["connects"] = static_cast<double>(channel->connects());
    obj["disconnects"] = static_cast<double>(channel->disconnects());
    obj["response_timeouts"] =
        static_cast<double>(channel->response_timeouts());
    obj["rejected_full"] = static_cast<double>(channel->rejected_full());
    obj["rejected_down"] = static_cast<double>(channel->rejected_down());
    obj["dropped_on_disconnect"] =
        static_cast<double>(channel->dropped_on_disconnect());
    obj["outstanding"] = static_cast<double>(channel->outstanding());
    backends.push_back(std::move(obj));
  }
  router["backends"] = std::move(backends);
  body["router"] = std::move(router);
  return body;
}

util::JsonValue::Object Router::ReportBody() {
  const auto load = [](const std::atomic<int64_t>& counter) {
    return static_cast<double>(counter.load(std::memory_order_relaxed));
  };
  const int64_t cache_hits =
      post_failover_cache_hits_.load(std::memory_order_relaxed);
  const int64_t warm = post_failover_warm_solves_.load(std::memory_order_relaxed);
  const int64_t cold = post_failover_cold_solves_.load(std::memory_order_relaxed);

  util::JsonValue::Object body;
  body["configured_backends"] = static_cast<int>(options_.backends.size());
  body["virtual_nodes"] = options_.virtual_nodes;
  body["replicate"] = options_.replicate;
  body["forwarded_requests"] = load(forwarded_);
  body["replicated_requests"] = load(replicated_);
  body["replica_retries"] = load(replica_retries_);
  body["replication_skipped"] = load(replication_skipped_);
  body["replication_rejected"] = load(replication_rejected_);
  body["replication_abandoned"] = load(replication_abandoned_);
  body["replication_errors"] = load(replication_errors_);
  body["backend_down_responses"] = load(backend_down_replies_);
  body["rerouted_requests"] = load(rerouted_ops_);
  body["failovers"] = load(failovers_);
  body["stray_responses"] = load(stray_responses_);
  body["backend_protocol_errors"] = load(backend_protocol_errors_);
  body["post_failover_cache_hits"] = static_cast<double>(cache_hits);
  body["post_failover_warm_solves"] = static_cast<double>(warm);
  body["post_failover_cold_solves"] = static_cast<double>(cold);
  body["backend_failover_observed"] =
      failovers_.load(std::memory_order_relaxed) > 0;
  body["warm_hit_after_failover"] = cache_hits + warm > 0;
  const int64_t post_total = cache_hits + warm + cold;
  body["post_failover_warm_hit_ratio"] =
      post_total > 0
          ? static_cast<double>(cache_hits + warm) /
                static_cast<double>(post_total)
          : 0.0;
  return body;
}

}  // namespace auditgame::server
