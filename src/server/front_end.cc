#include "server/front_end.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "server/binary_codec.h"
#include "server/reactor.h"

namespace auditgame::server {

namespace {
/// Acceptor poll bounds while serving and while draining: how late a tick,
/// a stop or a drain check runs if a wake notification is lost.
constexpr int kAcceptorPollMs = 250;
constexpr int kDrainPollMs = 50;
}  // namespace

void DefineFrontEndFlags(util::FlagParser& flags, uint16_t default_port) {
  flags.Define("host", "127.0.0.1", "numeric IPv4 bind address");
  flags.Define("port", std::to_string(default_port),
               "TCP port (0 = ephemeral, printed on start)");
  flags.Define("reactors", "1",
               "client-facing IO event-loop threads (each connection is "
               "pinned to one)");
  flags.Define("max_frame_kb", "1024", "frame payload cap in KiB");
  flags.Define("idle_timeout_ms", "300000",
               "close client connections idle this long with nothing in "
               "flight (0 = never)");
  flags.Define("max_connections", "0",
               "live client-connection cap; excess accepts are closed "
               "immediately (0 = unlimited)");
  flags.Define("drain_timeout_ms", "10000",
               "graceful-stop budget for answering in-flight work and "
               "flushing responses");
}

util::StatusOr<FrontEndOptions> FrontEndOptionsFromFlags(
    const util::FlagParser& flags) {
  FrontEndOptions options;
  options.host = flags.GetString("host");
  const int port = flags.GetInt("port");
  if (port < 0 || port > 65535) {
    return util::InvalidArgumentError("--port must be in 0-65535, got " +
                                      std::to_string(port));
  }
  options.port = static_cast<uint16_t>(port);
  ASSIGN_OR_RETURN(options.num_reactors, flags.GetIntAtLeast("reactors", 1));
  ASSIGN_OR_RETURN(const int max_frame_kb,
                   flags.GetIntAtLeast("max_frame_kb", 1));
  options.max_frame_payload = static_cast<size_t>(max_frame_kb) * 1024;
  ASSIGN_OR_RETURN(options.idle_timeout_ms,
                   flags.GetIntAtLeast("idle_timeout_ms", 0));
  ASSIGN_OR_RETURN(const int max_connections,
                   flags.GetIntAtLeast("max_connections", 0));
  options.max_connections = static_cast<size_t>(max_connections);
  ASSIGN_OR_RETURN(options.drain_timeout_ms,
                   flags.GetIntAtLeast("drain_timeout_ms", 0));
  return options;
}

FrontEnd::FrontEnd(FrontEndOptions options, FrontEndHooks hooks)
    : options_(std::move(options)), hooks_(std::move(hooks)) {}

FrontEnd::~FrontEnd() {
  for (auto& reactor : reactors_) reactor->Kill();
  for (auto& reactor : reactors_) reactor->Join();
}

util::Status FrontEnd::Start(
    const std::function<util::Status()>& start_workers) {
  if (started_) return util::FailedPreconditionError("already started");
  if (options_.num_reactors < 1) {
    return util::InvalidArgumentError(
        "num_reactors must be at least 1, got " +
        std::to_string(options_.num_reactors));
  }
  ASSIGN_OR_RETURN(listener_, net::ListenTcp(options_.host, options_.port));
  ASSIGN_OR_RETURN(port_, net::LocalPort(listener_));
  ASSIGN_OR_RETURN(poller_, net::Poller::Create());
  RETURN_IF_ERROR(
      poller_.Watch(listener_.fd(), /*read=*/true, /*write=*/false));

  reactors_.reserve(static_cast<size_t>(options_.num_reactors));
  for (int i = 0; i < options_.num_reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(
        i, options_,
        [this](Reactor& reactor, uint64_t conn_id,
               const std::string& payload) {
          return HandleFrame(reactor, conn_id, payload);
        }));
  }
  for (auto& reactor : reactors_) {
    RETURN_IF_ERROR(reactor->Start());
  }
  RETURN_IF_ERROR(start_workers());
  started_ = true;
  return util::OkStatus();
}

void FrontEnd::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  poller_.Notify();  // one async-signal-safe write(2)
}

int64_t FrontEnd::Sum(int64_t (Reactor::*counter)() const) const {
  int64_t total = 0;
  for (const auto& reactor : reactors_) total += ((*reactor).*counter)();
  return total;
}

void FrontEnd::AdmitConnections(std::vector<net::Socket> sockets,
                                bool enforce_cap) {
  // accepted − closed is exact even while adoptions are still queued in
  // reactor inboxes (both counters are monotonic), which is what the
  // accept cap needs: an accept burst may not bypass it.
  int64_t live = accepted_connections_.load(std::memory_order_relaxed) -
                 Sum(&Reactor::closed_connections);
  for (net::Socket& socket : sockets) {
    if (enforce_cap && options_.max_connections > 0 &&
        live >= static_cast<int64_t>(options_.max_connections)) {
      // Graceful refusal: close immediately instead of letting the peer
      // hang in a never-served queue. The peer sees EOF on first read.
      accept_rejections_.fetch_add(1, std::memory_order_relaxed);
      socket.Close();
      continue;
    }
    const uint64_t conn_id = ++next_conn_id_;
    accepted_connections_.fetch_add(1, std::memory_order_relaxed);
    ++live;
    reactors_[conn_id % reactors_.size()]->Adopt(std::move(socket), conn_id);
  }
}

void FrontEnd::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  if (listener_.valid()) {
    // Closing a listening socket resets every handshake-complete
    // connection still waiting in its accept queue — and those peers may
    // already have written requests. Accept them first (cap waived: they
    // are a bounded, already-handshaken backlog) so the drain can answer
    // them (with `overloaded`) instead of RST-ing them away.
    if (auto accepted = net::AcceptAll(listener_); accepted.ok()) {
      AdmitConnections(std::move(*accepted), /*enforce_cap=*/false);
    }
    poller_.Forget(listener_.fd());
    listener_.Close();
  }
  // The owner stops taking work first: from here on every request a
  // reactor reads is refused, so reactor in-flight counts only shrink.
  hooks_.on_drain();
  for (auto& reactor : reactors_) reactor->BeginDrain();
}

util::Status FrontEnd::Run() {
  if (!started_) return util::FailedPreconditionError("Start() first");
  std::chrono::steady_clock::time_point drain_deadline;
  auto last_tick = std::chrono::steady_clock::now();
  bool killed = false;

  for (;;) {
    const bool draining = draining_.load(std::memory_order_relaxed);
    if (stop_requested_.load(std::memory_order_acquire) && !draining) {
      BeginDrain();
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
      continue;
    }
    if (draining) {
      const bool all_drained =
          std::all_of(reactors_.begin(), reactors_.end(),
                      [](const auto& reactor) { return reactor->drained(); });
      if (all_drained) break;
      if (!killed && std::chrono::steady_clock::now() >= drain_deadline) {
        // Deadline: the owner abandons its backlog so the reactors'
        // outstanding counts can never settle, then they exit regardless.
        hooks_.on_deadline();
        for (auto& reactor : reactors_) reactor->Kill();
        killed = true;
      }
    }

    auto polled = poller_.Wait(
        draining ? kDrainPollMs : std::min(kAcceptorPollMs, hooks_.tick_ms));
    RETURN_IF_ERROR(polled.status());
    for (const net::PollEvent& event : polled->events) {
      if (listener_.valid() && event.fd == listener_.fd()) {
        auto accepted = net::AcceptAll(listener_);
        if (!accepted.ok()) continue;  // transient; the listener stays up
        AdmitConnections(std::move(*accepted), /*enforce_cap=*/true);
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (!draining &&
        now - last_tick >= std::chrono::milliseconds(hooks_.tick_ms)) {
      last_tick = now;
      hooks_.on_tick();
    }
  }

  // Reclaim the worker threads: the owner's first (they post into reactor
  // inboxes), then the reactors, then count responses that raced the exit
  // and could no longer be delivered.
  hooks_.stop_workers();
  for (auto& reactor : reactors_) reactor->Kill();
  util::Status status = util::OkStatus();
  for (auto& reactor : reactors_) {
    reactor->Join();
    if (status.ok()) status = reactor->status();
    reactor->DrainLeftovers();
  }
  return status;
}

bool FrontEnd::HandleFrame(Reactor& reactor, uint64_t conn_id,
                           const std::string& payload) {
  if (IsBinaryFrame(payload)) {
    reactor.SetBinaryMode(conn_id);
    auto request = DecodeBinaryRequest(payload);
    if (!request.ok()) {
      // A payload that claims to be binary and fails to decode means the
      // peer's encoder and ours disagree; every later frame is suspect.
      // One error frame, then the connection goes (sticky).
      reactor.CountProtocolError();
      reactor.Reply(conn_id,
                    EncodeBinaryErrorResponse(BinaryCorrelationIdOf(payload),
                                              request.status().ToString()));
      reactor.Poison(conn_id);
      return false;
    }
    hooks_.on_request(reactor, conn_id, *std::move(request), payload);
    return true;
  }

  auto doc = util::JsonValue::Parse(payload);
  if (!doc.ok()) {
    reactor.CountProtocolError();
    if (reactor.binary_mode(conn_id)) {
      // A binary-mode peer produced a frame that is neither binary nor
      // JSON: encoder desync, same sticky discipline as a bad binary frame.
      reactor.Reply(conn_id,
                    EncodeBinaryErrorResponse(-1, doc.status().ToString()));
      reactor.Poison(conn_id);
      return false;
    }
    // Malformed JSON in a well-formed frame: answer with an error frame and
    // keep the connection — the stream itself is still in sync.
    reactor.Reply(conn_id, MakeErrorResponse(-1, doc.status().ToString()));
    return true;
  }
  // JSON carries only `stats`; ParseRequest refuses the binary-only hot
  // verbs like any other bad request, and the connection survives.
  auto request = ParseRequest(*doc);
  if (!request.ok()) {
    reactor.CountProtocolError();
    reactor.Reply(conn_id, MakeErrorResponse(RequestIdOf(*doc),
                                             request.status().ToString()));
    return true;
  }
  reactor.Reply(conn_id, MakeStatsResponse(request->id, hooks_.stats_body()));
  return true;
}

void FrontEnd::PostResponses(std::vector<Shard::Response> batch) {
  if (batch.empty()) return;
  const size_t n = reactors_.size();
  if (n == 1) {
    reactors_[0]->PostResponses(std::move(batch));
    return;
  }
  std::vector<std::vector<Shard::Response>> per_reactor(n);
  for (Shard::Response& response : batch) {
    per_reactor[response.conn_id % n].push_back(std::move(response));
  }
  for (size_t r = 0; r < n; ++r) {
    if (!per_reactor[r].empty()) {
      reactors_[r]->PostResponses(std::move(per_reactor[r]));
    }
  }
}

util::JsonValue::Object FrontEnd::ServerStats() const {
  const auto sum = [this](int64_t (Reactor::*counter)() const) {
    return static_cast<double>(Sum(counter));
  };
  util::JsonValue::Object server;
  server["active_connections"] = sum(&Reactor::active_connections);
  server["accepted_connections"] = static_cast<double>(
      accepted_connections_.load(std::memory_order_relaxed));
  server["accept_rejections"] = static_cast<double>(
      accept_rejections_.load(std::memory_order_relaxed));
  server["frames_in"] = sum(&Reactor::frames_in);
  server["frames_out"] = sum(&Reactor::frames_out);
  server["protocol_errors"] = sum(&Reactor::protocol_errors);
  server["overloaded"] = sum(&Reactor::overloaded);
  server["slow_consumer_closes"] = sum(&Reactor::slow_consumer_closes);
  server["orphaned_responses"] = sum(&Reactor::orphaned_responses);
  server["idle_closes"] = sum(&Reactor::idle_closes);
  server["reactors"] = static_cast<int>(reactors_.size());
  server["draining"] = draining();
  return server;
}

}  // namespace auditgame::server
