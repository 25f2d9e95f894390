#ifndef AUDIT_GAME_NET_SOCKET_H_
#define AUDIT_GAME_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::net {

/// RAII owner of a file descriptor (socket or pipe end). Move-only; the
/// descriptor is closed on destruction. All networking in this project goes
/// through plain POSIX descriptors — no external dependencies — so the
/// serving stack builds anywhere the toolchain does.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  void Close();

 private:
  int fd_ = -1;
};

/// A dial target: numeric IPv4 host and TCP port.
struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// Parses a `host:port` address flag (loadgen/adversary_replay `--connect`,
/// audit_router `--backends`): a non-empty host, then after the last colon
/// an all-digit port in 1-65535. The host is checked when it is dialed.
util::StatusOr<HostPort> ParseHostPort(std::string_view spec);

/// Puts `fd` into non-blocking mode.
util::Status SetNonBlocking(int fd);

/// Disables Nagle's algorithm (the frames here are small request/response
/// pairs, so coalescing only adds latency). Failure is ignored by callers
/// that pass non-TCP descriptors.
util::Status SetNoDelay(int fd);

/// Creates a non-blocking TCP listener bound to `host:port` with
/// SO_REUSEADDR. `port` 0 binds an ephemeral port — read it back with
/// LocalPort(). `host` must be a numeric IPv4 address ("127.0.0.1",
/// "0.0.0.0"); name resolution is deliberately out of scope.
util::StatusOr<Socket> ListenTcp(const std::string& host, uint16_t port,
                                 int backlog = 128);

/// Blocking TCP connect to a numeric IPv4 `host:port` (the client side:
/// loadgen, tests). The returned socket stays blocking.
util::StatusOr<Socket> ConnectTcp(const std::string& host, uint16_t port);

/// Accepts every connection currently pending on the non-blocking
/// `listener`; returns an empty vector when none are pending. Accepted
/// sockets come back non-blocking with TCP_NODELAY set.
util::StatusOr<std::vector<Socket>> AcceptAll(const Socket& listener);

/// The locally bound port of a socket (after an ephemeral bind).
util::StatusOr<uint16_t> LocalPort(const Socket& socket);

/// A cross-thread wakeup channel: other threads (or a signal handler —
/// Notify() is one async-signal-safe write(2)) call Notify(), the owning
/// event loop watches read_fd() and calls Drain() when it polls readable.
/// Backed by eventfd(2) on Linux (one fd, one word, notifications coalesce
/// in the kernel) and a non-blocking pipe elsewhere; each reactor owns one,
/// replacing the single shared wake pipe of the one-loop server.
class WakeChannel {
 public:
  /// Invalid until assigned from Make() — Notify()/Drain() are no-ops.
  WakeChannel() = default;

  static util::StatusOr<WakeChannel> Make();

  /// The descriptor the event loop registers for read interest.
  int read_fd() const { return rx_.fd(); }

  bool valid() const { return rx_.valid(); }

  /// Wakes the owning loop. Async-signal-safe; a full channel already
  /// guarantees a pending wakeup, so the result is ignored.
  void Notify();

  /// Consumes pending notifications so the level-triggered poller stops
  /// reporting the channel readable.
  void Drain();

 private:
  WakeChannel(Socket rx, Socket tx) : rx_(std::move(rx)), tx_(std::move(tx)) {}

  Socket rx_;
  /// Pipe write end; invalid when rx_ is an eventfd (which is written and
  /// read through the same descriptor).
  Socket tx_;
};

}  // namespace auditgame::net

#endif  // AUDIT_GAME_NET_SOCKET_H_
