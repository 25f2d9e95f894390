#ifndef AUDIT_GAME_SERVER_REACTOR_H_
#define AUDIT_GAME_SERVER_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/connection.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "server/front_end.h"
#include "server/shard.h"
#include "util/status.h"

namespace auditgame::server {

/// One IO thread of the server's reactor pool: an event loop (epoll where
/// available, poll(2) otherwise — see net/poller.h) owning a disjoint set
/// of connections. The acceptor assigns each accepted socket to exactly one
/// reactor via Adopt() and that affinity never changes, so all per-
/// connection state (decoder, write buffer, in-flight count, binary-mode
/// flag) is touched by one thread only — no locks on the hot path. The
/// cross-thread surface is a mutex-protected inbox (adopted sockets +
/// shard response batches) plus a wake channel; everything else is
/// reactor-thread-only.
///
/// A connection's id encodes its owner — `conn_id % num_reactors` is the
/// reactor index — so shard responders route response batches back without
/// any shared map, and the routing stays valid even after the connection
/// closed (the orphaned response is still delivered to the right thread,
/// which counts it and settles the in-flight accounting).
///
/// Drain protocol: BeginDrain() stops nothing by itself — the loop keeps
/// reading (closed shard queues turn new requests into `overloaded`),
/// delivering and flushing, and exits only once a poll came back empty
/// with the inbox drained, zero shard responses outstanding and every
/// write buffer flushed: the proof that all accepted work was answered.
/// Kill() is the deadline escape hatch — exit now, abandoning buffers.
class Reactor {
 public:
  /// Called on the reactor thread for every decoded frame. Returning false
  /// poisons the connection: the remaining frames of the same read batch
  /// are dropped (the sticky binary-decode error path — the stream can no
  /// longer be trusted).
  using FrameHandler = std::function<bool(
      Reactor& reactor, uint64_t conn_id, const std::string& payload)>;

  /// Reads the frame cap, the write-buffer bound, the idle timeout and the
  /// poller backend from `options`.
  Reactor(int index, FrontEndOptions options, FrameHandler handler);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates the poller + wake channel and spawns the loop thread.
  util::Status Start();

  /// --- cross-thread surface ---

  /// Hands a freshly accepted socket (with its server-assigned id) to this
  /// reactor. Called by the acceptor; the loop registers it on next wake.
  void Adopt(net::Socket socket, uint64_t conn_id);

  /// Delivers one shard micro-batch's responses. Called from shard
  /// threads; each response settles one in-flight request.
  void PostResponses(std::vector<Shard::Response> batch);

  void BeginDrain();

  /// Deadline path: exit the loop now, abandoning unflushed output.
  void Kill();

  /// True once the loop exited (cleanly or via Kill()).
  bool drained() const { return drained_.load(std::memory_order_acquire); }

  void Join();

  /// Fatal loop error, OkStatus otherwise. Read after Join().
  util::Status status() const;

  /// After the loop exited and every shard joined: counts still-undelivered
  /// inbox responses as orphaned and discards them (with any unprocessed
  /// adopted sockets). Returns the orphan count.
  size_t DrainLeftovers();

  /// "epoll" or "poll" (valid after Start()).
  const char* backend_name() const { return backend_name_; }

  int index() const { return index_; }

  /// --- counters (atomic; readable from any thread for stats) ---

  int64_t active_connections() const { return Load(active_connections_); }
  int64_t closed_connections() const { return Load(closed_connections_); }
  int64_t frames_in() const { return Load(frames_in_); }
  int64_t frames_out() const { return Load(frames_out_); }
  int64_t protocol_errors() const { return Load(protocol_errors_); }
  int64_t overloaded() const { return Load(overloaded_); }
  int64_t slow_consumer_closes() const {
    return Load(slow_consumer_closes_);
  }
  int64_t orphaned_responses() const { return Load(orphaned_responses_); }
  int64_t idle_closes() const { return Load(idle_closes_); }

  /// --- frame-handler surface (reactor thread only) ---

  /// Queues one response frame and flushes what the socket accepts.
  /// `from_shard` marks responses that settle an in-flight shard task.
  void Reply(uint64_t conn_id, const std::string& payload,
             bool from_shard = false);

  /// Records one request handed to a shard queue; its response (or the
  /// orphan delivery after a close) settles the count.
  void OnSubmitted(uint64_t conn_id);

  /// Marks the connection binary-mode (first binary frame seen).
  void SetBinaryMode(uint64_t conn_id);
  bool binary_mode(uint64_t conn_id) const;

  /// Sticky protocol failure: stop reading, deliver what is owed, then
  /// close. Pairs with the handler returning false.
  void Poison(uint64_t conn_id);

  void CountProtocolError() { Add(protocol_errors_); }
  void CountOverloaded() { Add(overloaded_); }

 private:
  struct ConnState {
    explicit ConnState(net::Connection connection)
        : conn(std::move(connection)) {}
    net::Connection conn;
    /// Shard-queued requests still owing this connection a response. A
    /// half-closed peer with responses in flight stays open until every
    /// answer is flushed.
    int64_t in_flight = 0;
    bool read_closed = false;
    bool binary_mode = false;
    std::chrono::steady_clock::time_point last_activity;
  };

  struct AdoptedSocket {
    net::Socket socket;
    uint64_t conn_id = 0;
  };

  static int64_t Load(const std::atomic<int64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }
  static void Add(std::atomic<int64_t>& counter, int64_t delta = 1) {
    counter.fetch_add(delta, std::memory_order_relaxed);
  }

  void Run();
  /// Registers inbox sockets and delivers inbox responses. Returns true if
  /// anything was processed.
  bool DrainInbox();
  void HandleConnectionEvent(const net::PollEvent& event);
  void UpdateInterest(uint64_t conn_id);
  /// Closes a read-closed connection once nothing is owed to it.
  void MaybeFinishConnection(uint64_t conn_id);
  void CloseConnection(uint64_t conn_id);
  void ReapIdle(std::chrono::steady_clock::time_point now);
  bool AnyPendingWrite() const;

  const int index_;
  const FrontEndOptions options_;
  const FrameHandler handler_;
  const char* backend_name_ = "unstarted";

  std::unique_ptr<net::Poller> poller_;
  net::WakeChannel wake_;
  std::thread thread_;

  std::mutex inbox_mutex_;
  std::vector<AdoptedSocket> adopted_inbox_;
  std::vector<Shard::Response> response_inbox_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> killed_{false};
  std::atomic<bool> drained_{false};

  mutable std::mutex status_mutex_;
  util::Status status_;

  // Reactor-thread-only state.
  std::map<uint64_t, ConnState> connections_;
  std::map<int, uint64_t> fd_to_conn_;
  /// Total shard responses outstanding across all connections, including
  /// closed ones (orphan deliveries settle it) — the drain-exit proof that
  /// no accepted request is still being processed.
  int64_t in_flight_total_ = 0;
  std::chrono::steady_clock::time_point last_idle_sweep_;

  std::atomic<int64_t> active_connections_{0};
  std::atomic<int64_t> closed_connections_{0};
  std::atomic<int64_t> frames_in_{0};
  std::atomic<int64_t> frames_out_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> overloaded_{0};
  std::atomic<int64_t> slow_consumer_closes_{0};
  std::atomic<int64_t> orphaned_responses_{0};
  std::atomic<int64_t> idle_closes_{0};
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_REACTOR_H_
