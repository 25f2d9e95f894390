#ifndef AUDIT_GAME_NET_CLIENT_H_
#define AUDIT_GAME_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "net/frame.h"
#include "net/socket.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::net {

/// Blocking frame client — the counterpart of the server's event loop for
/// callers that want simple request/response control flow: tools/loadgen's
/// per-tenant worker threads and the server tests. One FrameClient belongs
/// to one thread.
class FrameClient {
 public:
  /// Connects to a numeric IPv4 `host:port`, retrying for up to
  /// `connect_wait_ms` while the listener is not up yet (CI starts the
  /// server as a background process and races it).
  static util::StatusOr<FrameClient> Connect(
      const std::string& host, uint16_t port, int connect_wait_ms = 0,
      size_t max_frame_payload = kDefaultMaxFramePayload);

  /// Caps how long Receive() blocks waiting for bytes (0 = forever).
  util::Status SetReceiveTimeout(int timeout_ms);

  /// Writes one full frame (blocking until every byte is accepted).
  util::Status Send(std::string_view payload);

  /// Appends one frame to the local send buffer without touching the
  /// socket — pipelined callers queue a whole request window, then pay one
  /// FlushSends() syscall for all of it.
  void QueueSend(std::string_view payload);

  /// Writes every queued frame (blocking until the kernel accepted all of
  /// it). No-op when nothing is queued.
  util::Status FlushSends();

  /// Decodes one frame from bytes already buffered by a previous Receive()
  /// — never reads the socket, never blocks. Returns true with *payload
  /// filled, or false when draining the buffer needs more socket data.
  /// Pipelined callers drain buffered responses before topping the window
  /// up, so a burst of responses costs one recv(2), not one per frame.
  util::StatusOr<bool> ReceiveBuffered(std::string* payload);

  /// Blocks until one complete frame arrives; error on EOF, timeout, or a
  /// framing violation. Any such error breaks the client permanently: a
  /// timed-out response may still arrive (or sit half-buffered in the
  /// decoder), so a later Call() could pair it with the wrong request —
  /// every subsequent Send/Receive fails instead. Reconnect to recover.
  util::StatusOr<std::string> Receive();

  /// Send + Receive — one round trip.
  util::StatusOr<std::string> Call(std::string_view payload);

  int fd() const { return socket_.fd(); }

 private:
  FrameClient(Socket socket, size_t max_frame_payload)
      : socket_(std::move(socket)), decoder_(max_frame_payload) {}

  Socket socket_;
  FrameDecoder decoder_;
  std::string send_buffer_;
  /// Set on the first receive failure; sticky (see Receive()).
  util::Status broken_ = util::OkStatus();
};

}  // namespace auditgame::net

#endif  // AUDIT_GAME_NET_CLIENT_H_
