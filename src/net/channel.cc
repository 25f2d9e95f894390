#include "net/channel.h"

#include <errno.h>
#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace auditgame::net {

namespace {
/// Idle loop granularity: bounds how stale the shutdown flag and delayed-
/// frame due times can get if a wake notification is lost.
constexpr int kPumpPollMs = 250;
constexpr size_t kReadChunk = 64 * 1024;

int MillisUntil(std::chrono::steady_clock::time_point now,
                std::chrono::steady_clock::time_point when) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
          .count();
  return ms < 0 ? 0 : static_cast<int>(std::min<int64_t>(ms, kPumpPollMs));
}
}  // namespace

FrameChannel::FrameChannel(std::string host, uint16_t port,
                           FrameChannelOptions options, Events events)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      events_(std::move(events)) {
  CHECK_GE(options_.window, 1) << "FrameChannel window";
  CHECK_GE(options_.queue_capacity, 1u) << "FrameChannel queue_capacity";
  CHECK_GE(options_.reconnect_backoff_min_ms, 1)
      << "FrameChannel reconnect_backoff_min_ms";
  CHECK_GE(options_.reconnect_backoff_max_ms,
           options_.reconnect_backoff_min_ms)
      << "FrameChannel reconnect_backoff_max_ms";
}

FrameChannel::~FrameChannel() {
  BeginShutdown();
  Join();
}

util::Status FrameChannel::Start() {
  if (thread_.joinable()) {
    return util::FailedPreconditionError("already started");
  }
  ASSIGN_OR_RETURN(poller_, Poller::Create());
  thread_ = std::thread([this] { Run(); });
  return util::OkStatus();
}

FrameChannel::Submit FrameChannel::TrySubmit(std::string payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || !connected_) {
      rejected_down_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kDown;
    }
    if (accepted_unanswered_ >= options_.queue_capacity) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kFull;
    }
    ++accepted_unanswered_;
    outstanding_.store(static_cast<int64_t>(accepted_unanswered_),
                       std::memory_order_relaxed);
    inbox_.push_back(std::move(payload));
  }
  poller_.Notify();
  return Submit::kAccepted;
}

FrameChannel::Submit FrameChannel::TrySubmitAfter(std::string payload,
                                                  int delay_ms) {
  if (delay_ms <= 0) return TrySubmit(std::move(payload));
  const auto due =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(delay_ms);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || !connected_) {
      rejected_down_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kDown;
    }
    if (accepted_unanswered_ >= options_.queue_capacity) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return Submit::kFull;
    }
    ++accepted_unanswered_;
    outstanding_.store(static_cast<int64_t>(accepted_unanswered_),
                       std::memory_order_relaxed);
    delayed_.push_back(DelayedFrame{std::move(payload), due});
  }
  poller_.Notify();
  return Submit::kAccepted;
}

void FrameChannel::BeginShutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  poller_.Notify();
}

void FrameChannel::Join() {
  if (thread_.joinable()) thread_.join();
}

void FrameChannel::DropOutstanding() {
  size_t dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped = accepted_unanswered_;
    accepted_unanswered_ = 0;
    outstanding_.store(0, std::memory_order_relaxed);
    inbox_.clear();
    delayed_.clear();
  }
  pending_.clear();
  in_flight_.clear();
  write_buffer_.clear();
  dropped_on_disconnect_.fetch_add(static_cast<int64_t>(dropped),
                                   std::memory_order_relaxed);
}

void FrameChannel::Run() {
  int backoff_ms = options_.reconnect_backoff_min_ms;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_) break;
    }
    auto socket = ConnectTcp(host_, port_);
    if (!socket.ok()) {
      // Backoff, interruptible by BeginShutdown's wake.
      (void)poller_.Wait(backoff_ms);
      backoff_ms =
          std::min(backoff_ms * 2, options_.reconnect_backoff_max_ms);
      continue;
    }
    if (!SetNonBlocking(socket->fd()).ok()) continue;
    (void)SetNoDelay(socket->fd());
    backoff_ms = options_.reconnect_backoff_min_ms;
    connects_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      connected_ = true;
    }
    up_.store(true, std::memory_order_release);
    if (events_.on_state) events_.on_state(true);

    PumpConnection(std::move(*socket));

    up_.store(false, std::memory_order_release);
    bool shutting_down;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      connected_ = false;
      shutting_down = shutdown_;
    }
    DropOutstanding();
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    if (events_.on_state) events_.on_state(false);
    if (shutting_down) break;
    // Reconnect immediately: a refused connect falls into the backoff
    // path above on its own.
  }
}

void FrameChannel::PumpConnection(Socket socket) {
  FrameDecoder decoder(options_.max_frame_payload);
  std::vector<std::string> received;

  for (;;) {
    bool dead = false;

    // Intake: adopt fresh submissions and due retries under the lock, and
    // learn the next retry due time and the shutdown flag while there.
    std::chrono::steady_clock::time_point next_due{};
    bool have_due = false;
    const auto now = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_) {
        poller_.Forget(socket.fd());
        return;
      }
      while (!inbox_.empty()) {
        pending_.push_back(std::move(inbox_.front()));
        inbox_.pop_front();
      }
      for (size_t i = 0; i < delayed_.size();) {
        if (delayed_[i].due <= now) {
          pending_.push_back(std::move(delayed_[i].payload));
          delayed_[i] = std::move(delayed_.back());
          delayed_.pop_back();
        } else {
          if (!have_due || delayed_[i].due < next_due) {
            next_due = delayed_[i].due;
            have_due = true;
          }
          ++i;
        }
      }
    }

    // Top up the wire to the window and flush what the socket accepts.
    while (in_flight_.size() < static_cast<size_t>(options_.window) &&
           !pending_.empty()) {
      write_buffer_ += EncodeFrame(pending_.front());
      pending_.pop_front();
      in_flight_.push_back(now);
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
    }
    while (!write_buffer_.empty()) {
      const ssize_t n = ::send(socket.fd(), write_buffer_.data(),
                               write_buffer_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        write_buffer_.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      dead = true;
      break;
    }
    if (!dead) {
      // An unchanged interest set costs no syscall; a socket the poller
      // refuses would never be served, so it is dropped like a dead one.
      dead = !poller_.Watch(socket.fd(), /*read=*/true,
                            /*write=*/!write_buffer_.empty())
                  .ok();
    }
    if (dead) {
      poller_.Forget(socket.fd());
      return;
    }

    int timeout_ms = kPumpPollMs;
    if (!in_flight_.empty()) {
      timeout_ms = std::min(
          timeout_ms,
          MillisUntil(now, in_flight_.front() + std::chrono::milliseconds(
                                                    options_.response_timeout_ms)));
    }
    if (have_due) timeout_ms = std::min(timeout_ms, MillisUntil(now, next_due));

    auto polled = poller_.Wait(timeout_ms);
    if (!polled.ok()) {
      poller_.Forget(socket.fd());
      return;
    }
    received.clear();
    for (const PollEvent& event : polled->events) {
      if (event.fd != socket.fd()) continue;
      if (event.readable || event.hangup) {
        // Drain the kernel buffer even on hangup: responses written before
        // the peer died are still answers.
        char buf[kReadChunk];
        for (;;) {
          const ssize_t n = ::recv(socket.fd(), buf, sizeof(buf), 0);
          if (n > 0) {
            decoder.Append(buf, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          dead = true;  // EOF or socket error
          break;
        }
        std::string payload;
        for (;;) {
          auto next = decoder.Next(&payload);
          if (!next.ok()) {  // oversized frame: stream unusable
            dead = true;
            break;
          }
          if (!*next) break;
          received.push_back(std::move(payload));
        }
      }
    }

    if (!received.empty()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        const size_t settled =
            std::min(received.size(), accepted_unanswered_);
        accepted_unanswered_ -= settled;
        outstanding_.store(static_cast<int64_t>(accepted_unanswered_),
                           std::memory_order_relaxed);
      }
      for (size_t i = 0; i < received.size() && !in_flight_.empty(); ++i) {
        in_flight_.pop_front();
      }
      frames_received_.fetch_add(static_cast<int64_t>(received.size()),
                                 std::memory_order_relaxed);
      // No locks held: on_frame may re-enter TrySubmit.
      if (events_.on_frame) {
        for (std::string& frame : received) {
          events_.on_frame(std::move(frame));
        }
      }
      received.clear();
    }

    if (!dead && !in_flight_.empty() &&
        std::chrono::steady_clock::now() - in_flight_.front() >=
            std::chrono::milliseconds(options_.response_timeout_ms)) {
      response_timeouts_.fetch_add(1, std::memory_order_relaxed);
      dead = true;
    }
    if (dead) {
      poller_.Forget(socket.fd());
      return;
    }
  }
}

}  // namespace auditgame::net
