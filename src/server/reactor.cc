#include "server/reactor.h"

#include <algorithm>
#include <utility>

namespace auditgame::server {

namespace {
/// Poll granularity: fast enough that drain/kill requests and idle sweeps
/// are noticed promptly even if a wake notification is lost, cheap enough
/// to idle on.
constexpr int kIdlePollMs = 500;
constexpr int kDrainPollMs = 50;
/// Idle reaping scans the connection map, so at large connection counts it
/// runs on its own (coarser) cadence rather than every poll round.
constexpr int kMinIdleSweepMs = 100;
}  // namespace

Reactor::Reactor(int index, FrontEndOptions options, FrameHandler handler)
    : index_(index),
      options_(std::move(options)),
      handler_(std::move(handler)) {}

Reactor::~Reactor() {
  Kill();
  Join();
}

util::Status Reactor::Start() {
  poller_ = net::MakePoller(options_.poller_backend);
  if (!poller_) {
    return util::InvalidArgumentError(
        "requested poller backend unavailable on this platform");
  }
  backend_name_ = poller_->backend_name();
  ASSIGN_OR_RETURN(wake_, net::WakeChannel::Make());
  poller_->Watch(wake_.read_fd(), /*read=*/true, /*write=*/false);
  last_idle_sweep_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { Run(); });
  return util::OkStatus();
}

void Reactor::Adopt(net::Socket socket, uint64_t conn_id) {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    adopted_inbox_.push_back(AdoptedSocket{std::move(socket), conn_id});
  }
  wake_.Notify();
}

void Reactor::PostResponses(std::vector<Shard::Response> batch) {
  if (batch.empty()) return;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    response_inbox_.insert(response_inbox_.end(),
                           std::make_move_iterator(batch.begin()),
                           std::make_move_iterator(batch.end()));
  }
  wake_.Notify();
}

void Reactor::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  wake_.Notify();
}

void Reactor::Kill() {
  killed_.store(true, std::memory_order_release);
  wake_.Notify();
}

void Reactor::Join() {
  if (thread_.joinable()) thread_.join();
}

util::Status Reactor::status() const {
  std::lock_guard<std::mutex> lock(status_mutex_);
  return status_;
}

size_t Reactor::DrainLeftovers() {
  std::vector<AdoptedSocket> adopted;
  std::vector<Shard::Response> responses;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    adopted.swap(adopted_inbox_);
    responses.swap(response_inbox_);
  }
  Add(orphaned_responses_, static_cast<int64_t>(responses.size()));
  return responses.size();
}

bool Reactor::AnyPendingWrite() const {
  for (const auto& [conn_id, state] : connections_) {
    if (state.conn.wants_write()) return true;
  }
  return false;
}

void Reactor::Run() {
  for (;;) {
    if (killed_.load(std::memory_order_acquire)) break;
    const bool draining = draining_.load(std::memory_order_acquire);

    auto events = poller_->Wait(draining ? kDrainPollMs : kIdlePollMs);
    if (!events.ok()) {
      std::lock_guard<std::mutex> lock(status_mutex_);
      status_ = events.status();
      break;
    }
    const bool idle_poll = events->empty();

    bool woke = false;
    for (const net::PollEvent& event : *events) {
      if (event.fd == wake_.read_fd()) {
        wake_.Drain();
        woke = true;
        continue;
      }
      HandleConnectionEvent(event);
    }

    const bool inbox_work = DrainInbox();

    if (options_.idle_timeout_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      const int sweep_ms =
          std::max(options_.idle_timeout_ms / 4, kMinIdleSweepMs);
      if (now - last_idle_sweep_ >= std::chrono::milliseconds(sweep_ms)) {
        last_idle_sweep_ = now;
        ReapIdle(now);
      }
    }

    // Exit only off an *empty* poll with nothing woken and nothing queued:
    // every frame the kernel buffered has then been read and answered
    // (closed shard queues turn post-stop requests into `overloaded`),
    // every shard response came back (in_flight_total_ == 0 — including
    // orphans for connections that died waiting) and every answer was
    // flushed. Nothing accepted is dropped in silence.
    if (draining && idle_poll && !woke && !inbox_work &&
        in_flight_total_ == 0 && !AnyPendingWrite()) {
      bool inbox_empty;
      {
        std::lock_guard<std::mutex> lock(inbox_mutex_);
        inbox_empty = adopted_inbox_.empty() && response_inbox_.empty();
      }
      if (inbox_empty) break;
    }
  }

  // Drop whatever is still open; on a clean drain every buffer is already
  // flushed, on the kill path the deadline decided for us.
  for (auto& [conn_id, state] : connections_) {
    poller_->Forget(state.conn.fd());
  }
  Add(closed_connections_, static_cast<int64_t>(connections_.size()));
  connections_.clear();
  fd_to_conn_.clear();
  active_connections_.store(0, std::memory_order_relaxed);
  drained_.store(true, std::memory_order_release);
}

bool Reactor::DrainInbox() {
  std::vector<AdoptedSocket> adopted;
  std::vector<Shard::Response> responses;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    adopted.swap(adopted_inbox_);
    responses.swap(response_inbox_);
  }
  for (AdoptedSocket& entry : adopted) {
    const int fd = entry.socket.fd();
    auto [it, inserted] = connections_.emplace(
        entry.conn_id,
        ConnState(net::Connection(std::move(entry.socket),
                                  options_.max_frame_payload,
                                  options_.max_write_buffer)));
    if (!inserted) continue;  // duplicate id: acceptor bug, drop the socket
    it->second.last_activity = std::chrono::steady_clock::now();
    fd_to_conn_[fd] = entry.conn_id;
    poller_->Watch(fd, /*read=*/true, /*write=*/false);
    Add(active_connections_);
  }
  for (Shard::Response& response : responses) {
    Reply(response.conn_id, response.payload, /*from_shard=*/true);
  }
  return !adopted.empty() || !responses.empty();
}

void Reactor::HandleConnectionEvent(const net::PollEvent& event) {
  const auto fd_it = fd_to_conn_.find(event.fd);
  if (fd_it == fd_to_conn_.end()) return;
  const uint64_t conn_id = fd_it->second;

  if (event.readable || event.hangup) {
    auto conn_it = connections_.find(conn_id);
    if (conn_it == connections_.end()) return;
    conn_it->second.last_activity = std::chrono::steady_clock::now();
    std::vector<std::string> frames;
    auto open = conn_it->second.conn.ReadFrames(&frames);
    Add(frames_in_, static_cast<int64_t>(frames.size()));
    for (const std::string& frame : frames) {
      if (!handler_(*this, conn_id, frame)) break;  // poisoned: drop the rest
    }
    // Re-find: handling a frame can close the connection (slow consumer,
    // poison) and invalidate the iterator.
    conn_it = connections_.find(conn_id);
    if (conn_it == connections_.end()) return;
    if (!open.ok() || !*open) {
      // Peer closed its write side (or broke framing): stop reading, but
      // keep the connection until buffered output and in-flight shard
      // responses are settled — pipelined requests before a half-close
      // still deserve answers.
      conn_it->second.read_closed = true;
      UpdateInterest(conn_id);
      MaybeFinishConnection(conn_id);
      return;
    }
  }
  if (event.writable) {
    auto conn_it = connections_.find(conn_id);
    if (conn_it == connections_.end()) return;
    conn_it->second.last_activity = std::chrono::steady_clock::now();
    if (!conn_it->second.conn.Flush()) {
      CloseConnection(conn_id);
      return;
    }
    UpdateInterest(conn_id);
    MaybeFinishConnection(conn_id);
  }
}

void Reactor::Reply(uint64_t conn_id, const std::string& payload,
                    bool from_shard) {
  if (from_shard) --in_flight_total_;
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    // The client disconnected before its response was ready; it cannot be
    // answered, only counted.
    Add(orphaned_responses_);
    return;
  }
  if (from_shard) --it->second.in_flight;
  if (!it->second.conn.QueueFrame(payload)) {
    Add(slow_consumer_closes_);
    CloseConnection(conn_id);
    return;
  }
  Add(frames_out_);
  it->second.last_activity = std::chrono::steady_clock::now();
  if (!it->second.conn.Flush()) {
    CloseConnection(conn_id);
    return;
  }
  UpdateInterest(conn_id);
  MaybeFinishConnection(conn_id);
}

void Reactor::OnSubmitted(uint64_t conn_id) {
  ++in_flight_total_;
  if (auto it = connections_.find(conn_id); it != connections_.end()) {
    ++it->second.in_flight;
  }
}

void Reactor::SetBinaryMode(uint64_t conn_id) {
  if (auto it = connections_.find(conn_id); it != connections_.end()) {
    it->second.binary_mode = true;
  }
}

bool Reactor::binary_mode(uint64_t conn_id) const {
  const auto it = connections_.find(conn_id);
  return it != connections_.end() && it->second.binary_mode;
}

void Reactor::Poison(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  it->second.read_closed = true;
  UpdateInterest(conn_id);
  MaybeFinishConnection(conn_id);
}

void Reactor::UpdateInterest(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  const ConnState& state = it->second;
  if (state.read_closed && !state.conn.wants_write()) {
    // Nothing to poll for — and both backends report hangup/error even for
    // an empty interest set, so leaving a dead-but-pending connection
    // (in-flight shard responses) registered would busy-spin the loop.
    // Response delivery re-registers write interest when it queues data.
    poller_->Forget(state.conn.fd());
    return;
  }
  poller_->Watch(state.conn.fd(), /*read=*/!state.read_closed,
                 /*write=*/state.conn.wants_write());
}

void Reactor::MaybeFinishConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  const ConnState& state = it->second;
  if (state.read_closed && state.in_flight == 0 &&
      !state.conn.wants_write()) {
    CloseConnection(conn_id);
  }
}

void Reactor::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  poller_->Forget(it->second.conn.fd());
  fd_to_conn_.erase(it->second.conn.fd());
  connections_.erase(it);
  Add(active_connections_, -1);
  Add(closed_connections_);
}

void Reactor::ReapIdle(std::chrono::steady_clock::time_point now) {
  const auto timeout = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<uint64_t> stale;
  for (const auto& [conn_id, state] : connections_) {
    // Never reap a connection the server still owes something — an
    // in-flight solve or an unflushed response is activity, just not
    // socket-visible activity.
    if (state.in_flight > 0 || state.conn.wants_write()) continue;
    if (now - state.last_activity >= timeout) stale.push_back(conn_id);
  }
  for (const uint64_t conn_id : stale) {
    Add(idle_closes_);
    CloseConnection(conn_id);
  }
}

}  // namespace auditgame::server
