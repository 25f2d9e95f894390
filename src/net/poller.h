#ifndef AUDIT_GAME_NET_POLLER_H_
#define AUDIT_GAME_NET_POLLER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::net {

/// One descriptor's readiness after a Wait().
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Peer hangup or socket error: the connection is dead regardless of any
  /// data still buffered (a final read drains what the kernel has).
  bool hangup = false;
};

/// What one Wait() saw: the ready watched descriptors, and whether
/// Notify() was called since the previous Wait().
struct PollResult {
  std::vector<PollEvent> events;
  bool woken = false;
};

/// The event-loop primitive behind every reactor, the acceptor and each
/// router backend channel: a level-triggered epoll set plus the loop's own
/// eventfd wake. A ready descriptor keeps reporting until drained, so a
/// missed wakeup costs one loop iteration, never a stall.
///
/// The poller remembers each fd's interest, so a Watch() that changes
/// nothing makes no syscall. Callers must Forget() an fd before closing
/// it: close() silently drops the kernel's registration, and a reused fd
/// number Watched with the remembered interest would never be registered.
///
/// One Poller belongs to one event-loop thread; only Notify() may be
/// called from other threads.
class Poller {
 public:
  /// Not usable until assigned from Create().
  Poller() = default;

  /// Creates the epoll set and the wake eventfd.
  static util::StatusOr<Poller> Create();

  /// Registers `fd` or updates its interest set. `read`/`write` select the
  /// events to wake on (hangup/error always wake). An error means the fd
  /// is not watched — the caller drops it.
  util::Status Watch(int fd, bool read, bool write);

  /// Stops watching `fd` (no-op if unknown).
  void Forget(int fd);

  /// Wakes the loop's Wait(). Any thread; async-signal-safe — one write(2)
  /// to the eventfd, where notifications coalesce into one wake.
  void Notify();

  /// Blocks until a watched descriptor is ready, Notify() is called, or
  /// `timeout_ms` elapses (-1 = forever). A result with no events and no
  /// wake means the timeout genuinely expired with nothing pending (EINTR
  /// is retried internally).
  util::StatusOr<PollResult> Wait(int timeout_ms);

 private:
  Poller(Socket epoll, Socket wake)
      : epoll_(std::move(epoll)), wake_(std::move(wake)) {}

  Socket epoll_;
  Socket wake_;
  /// fd → the epoll event mask the kernel holds for it.
  std::unordered_map<int, uint32_t> interest_;
};

}  // namespace auditgame::net

#endif  // AUDIT_GAME_NET_POLLER_H_
