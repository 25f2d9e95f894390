#include "net/poller.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <string>

namespace auditgame::net {

namespace {

constexpr int kMaxEvents = 256;

util::Status ErrnoError(const std::string& what, int error) {
  return util::InternalError(what + ": " + std::string(strerror(error)));
}

}  // namespace

util::StatusOr<Poller> Poller::Create() {
  Socket epoll(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll.valid()) return ErrnoError("epoll_create1", errno);
  Socket wake(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake.valid()) return ErrnoError("eventfd", errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake.fd();
  if (::epoll_ctl(epoll.fd(), EPOLL_CTL_ADD, wake.fd(), &ev) != 0) {
    return ErrnoError("epoll_ctl(eventfd)", errno);
  }
  return Poller(std::move(epoll), std::move(wake));
}

util::Status Poller::Watch(int fd, bool read, bool write) {
  const uint32_t mask = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
  const auto it = interest_.find(fd);
  const bool known = it != interest_.end();
  if (known && it->second == mask) return util::OkStatus();

  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = fd;
  const auto ctl = [&](int op) {
    return ::epoll_ctl(epoll_.fd(), op, fd, &ev) == 0 ? 0 : errno;
  };
  const int first = ctl(known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD);
  if (first != 0) {
    // The kernel's view can disagree with ours after an fd was closed and
    // its number reused (close() silently deregisters); retry with the
    // opposite op before giving up. Report the ADD's error: the MOD's is
    // only the ENOENT of an unregistered fd.
    const int second = ctl(known ? EPOLL_CTL_ADD : EPOLL_CTL_MOD);
    if (second != 0) {
      if (known) interest_.erase(it);
      return ErrnoError("epoll_ctl(fd " + std::to_string(fd) + ")",
                        known ? second : first);
    }
  }
  interest_[fd] = mask;
  return util::OkStatus();
}

void Poller::Forget(int fd) {
  if (interest_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, fd, nullptr);
}

void Poller::Notify() {
  // A saturated counter already guarantees a pending wake, so the result
  // is ignored.
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_.fd(), &one, sizeof(one));
}

util::StatusOr<PollResult> Poller::Wait(int timeout_ms) {
  epoll_event ready[kMaxEvents];
  int n;
  do {
    n = ::epoll_wait(epoll_.fd(), ready, kMaxEvents, timeout_ms);
    // Retry on EINTR rather than reporting an empty result: callers treat
    // one as "nothing is pending" (the reactors' drain uses it as the exit
    // proof), which a signal interruption is not.
  } while (n < 0 && errno == EINTR);
  if (n < 0) return ErrnoError("epoll_wait", errno);

  PollResult result;
  result.events.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (ready[i].data.fd == wake_.fd()) {
      // One read resets the eventfd counter, however many Notify() calls
      // it coalesced.
      uint64_t count;
      [[maybe_unused]] const ssize_t r = ::read(wake_.fd(), &count,
                                                sizeof(count));
      result.woken = true;
      continue;
    }
    PollEvent event;
    event.fd = ready[i].data.fd;
    event.readable = (ready[i].events & EPOLLIN) != 0;
    event.writable = (ready[i].events & EPOLLOUT) != 0;
    event.hangup = (ready[i].events & (EPOLLHUP | EPOLLERR)) != 0;
    result.events.push_back(event);
  }
  return result;
}

}  // namespace auditgame::net
