#ifndef AUDIT_GAME_SERVER_FRONT_END_H_
#define AUDIT_GAME_SERVER_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "server/protocol.h"
#include "server/shard.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::server {

class Reactor;

/// The client-facing settings every front door shares (AuditServer and
/// Router embed one each as `front`).
struct FrontEndOptions {
  /// Numeric IPv4 bind address.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  /// IO threads. Each accepted connection is pinned to one reactor for its
  /// whole life (conn_id % num_reactors), so reactors share nothing but
  /// the accept stream and the owner's request sink.
  int num_reactors = 1;
  size_t max_frame_payload = net::kDefaultMaxFramePayload;
  /// Per-connection write-buffer bound; a peer further behind than this is
  /// disconnected (slow-consumer close) rather than buffered forever.
  size_t max_write_buffer = 4u << 20;
  /// Connections with no traffic for this long — and nothing owed to them
  /// — are reaped (dead clients do not hold fds forever). 0 disables.
  int idle_timeout_ms = 300000;
  /// Accept cap: beyond this many live connections new accepts are closed
  /// immediately (a graceful refusal, not a hang). 0 = unlimited.
  size_t max_connections = 0;
  /// Event-loop backend for the acceptor and every reactor (kDefault =
  /// epoll where available, poll(2) otherwise).
  net::PollerBackend poller_backend = net::PollerBackend::kDefault;
  /// How long a graceful stop waits for in-flight work to be answered and
  /// flushed before giving up.
  int drain_timeout_ms = 10000;
};

/// Defines the front-door flags both serving tools share: --host, --port
/// (default `default_port`), --reactors, --poller, --max_frame_kb,
/// --idle_timeout_ms, --max_connections and --drain_timeout_ms.
void DefineFrontEndFlags(util::FlagParser& flags, uint16_t default_port);

/// Resolves the flags defined by DefineFrontEndFlags. Rejects a port
/// outside 0–65535, --max_frame_kb below 1 and an unknown --poller name
/// instead of wrapping them into a different (or no) limit.
util::StatusOr<FrontEndOptions> FrontEndOptionsFromFlags(
    const util::FlagParser& flags);

/// What an owner plugs into its front end. on_request, stats_body and
/// stop_workers are required; the others default to doing nothing.
struct FrontEndHooks {
  /// A decoded `ingest` or `solve_cycle` request (reactor thread).
  /// `payload` is the verbatim frame body. The owner answers it through
  /// `reactor` or settles it later through FrontEnd::PostResponses.
  std::function<void(Reactor& reactor, uint64_t conn_id, Request request,
                     const std::string& payload)>
      on_request;
  /// The body the `stats` verb answers with (reactor thread).
  std::function<util::JsonValue::Object()> stats_body;
  /// Acceptor thread, once: the listener is closed and the reactors are
  /// about to drain. The owner stops taking new work here.
  std::function<void()> on_drain = [] {};
  /// Acceptor thread, at most once: the drain deadline passed and the
  /// reactors are about to be killed.
  std::function<void()> on_deadline = [] {};
  /// Acceptor thread, every `tick_ms` while serving.
  std::function<void()> on_tick = [] {};
  int tick_ms = 250;
  /// Stops every thread that posts into reactor inboxes. Run() calls it
  /// before the reactors exit; the owner's destructor must call it too.
  std::function<void()> stop_workers;
};

/// The one client-facing front door of the serving layer: the listener,
/// the acceptor loop (the thread that calls Run()), a pool of reactor IO
/// threads, connection ids and the accept cap, the frame decoder with its
/// protocol-error discipline and the `stats` verb, response fan-out to the
/// owning reactor, and the graceful drain. AuditServer (shards behind it)
/// and Router (backend channels behind it) each own one and supply only
/// FrontEndHooks. See docs/DESIGN.md "Reactors and connection affinity".
///
/// Lifecycle: Start() binds, spawns the reactors and then the owner's
/// workers; Run() accepts until RequestStop() (async-signal-safe), then
/// accepts the pending backlog, closes the listener, lets the owner and
/// the reactors drain — bounded by drain_timeout_ms — stops the owner's
/// workers and the reactors, and returns. Destroying a FrontEnd kills and
/// joins its reactors; the owner stops its workers first.
class FrontEnd {
 public:
  FrontEnd(FrontEndOptions options, FrontEndHooks hooks);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the listener and starts the reactors, then runs `start_workers`
  /// (which may start posting responses). Serving state is only marked
  /// started once both succeed.
  util::Status Start(const std::function<util::Status()>& start_workers);
  util::Status Run();

  /// Signals Run() to begin the graceful drain. Async-signal-safe: one
  /// atomic store plus a write(2) to the wake channel.
  void RequestStop();

  /// Wakes the acceptor loop (any thread) so it re-checks drain progress.
  void Wake() { wake_.Notify(); }

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  /// True from the moment the drain begins (readable from any thread).
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Delivers responses to the reactors owning their connections
  /// (conn_id % num_reactors — valid even after a close; the owner counts
  /// the orphan). One PostResponses per reactor per call. Any thread.
  void PostResponses(std::vector<Shard::Response> batch);

  /// The reactor-summed `server` stats block: connection, frame and error
  /// counters, reactor count, poller backend and the draining flag.
  util::JsonValue::Object ServerStats() const;

 private:
  bool HandleFrame(Reactor& reactor, uint64_t conn_id,
                   const std::string& payload);
  void AdmitConnections(std::vector<net::Socket> sockets, bool enforce_cap);
  void BeginDrain();
  /// One reactor counter summed over the pool.
  int64_t Sum(int64_t (Reactor::*counter)() const) const;

  FrontEndOptions options_;
  const FrontEndHooks hooks_;

  net::Socket listener_;
  net::WakeChannel wake_;
  std::unique_ptr<net::Poller> acceptor_poller_;
  uint16_t port_ = 0;
  bool started_ = false;

  std::vector<std::unique_ptr<Reactor>> reactors_;
  uint64_t next_conn_id_ = 0;

  std::atomic<bool> stop_requested_{false};
  /// Written by the acceptor thread, read by reactor and worker threads.
  std::atomic<bool> draining_{false};

  // Acceptor-thread counters, reported in the `server` stats block.
  std::atomic<int64_t> accepted_connections_{0};
  std::atomic<int64_t> accept_rejections_{0};
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_FRONT_END_H_
