#ifndef AUDIT_GAME_SERVER_REQUEST_WINDOW_H_
#define AUDIT_GAME_SERVER_REQUEST_WINDOW_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/socket.h"
#include "server/binary_codec.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::server {

struct RequestWindowOptions {
  /// Requests on the wire at once; at least 1.
  int window = 1;
  /// Re-sends of one request answered `overloaded` or `backend_down`
  /// before it completes as given up.
  int max_retries = 0;
  /// How long a not-applied request sits out before its re-send. The rest
  /// of the window keeps flowing meanwhile.
  int retry_backoff_ms = 0;
  /// Re-dials of a failed connection over the window's life. Each re-dial
  /// re-sends every request that was in flight, byte-identical.
  int reconnects = 0;
  /// Where a re-dial connects (unused while `reconnects` is 0).
  net::HostPort target;
  /// Receive timeout set on a re-dialed connection (0 = none).
  int timeout_ms = 0;
};

/// The one blocking client-side request window: tools/loadgen's
/// connections, tools/adversary_replay's burst drill and
/// adversary::RemoteDefender (a window of one) all run on it.
///
/// It pipelines frames over a borrowed net::FrameClient (one send(2) per
/// top-up, one recv(2) per burst of responses), pairs each response with
/// its request by correlation id, re-sends not-applied requests after a
/// per-request sit-out, and re-dials a broken connection within a budget.
/// Requests complete in response order, so a caller that needs one
/// tenant's requests to apply in order keeps at most one of them
/// outstanding. One window per connection, used by one thread.
class RequestWindow {
 public:
  struct Completion {
    enum class Kind {
      /// The response paired with an outstanding request.
      kAnswered,
      /// The response's id matched no request in flight.
      kUnmatched,
      /// The payload did not decode; `response.message` says why.
      kUndecodable,
    };
    Kind kind = Kind::kAnswered;
    /// The Submit() tag; only meaningful for kAnswered.
    uint64_t tag = 0;
    /// The decoded response. For kAnswered its status is ok, error, or a
    /// not-applied status (`overloaded`, `backend_down`: nothing was
    /// applied, see server/protocol.h) whose retries ran out.
    BinaryResponse response;
    /// Not-applied re-sends this request spent.
    int retries = 0;

    /// OK for an answered `ok`. Otherwise why the request failed:
    /// ResourceExhausted when its not-applied retries ran out, Internal
    /// for an `error` response or a response that paired with nothing.
    util::Status ToStatus() const;
  };

  /// Dials `target`, waiting up to 10 s for a listener that is not up yet,
  /// and sets the receive timeout (0 = none).
  static util::StatusOr<net::FrameClient> Dial(const net::HostPort& target,
                                               int timeout_ms);

  /// Borrows `client` for the window's life; a re-dial replaces it in
  /// place.
  RequestWindow(net::FrameClient& client, RequestWindowOptions options);

  /// True while a request submitted now can go on the wire at the next
  /// Poll() (re-sends that are due go first).
  bool HasRoom() const;

  /// Requests submitted and not yet completed: on the wire, queued, or
  /// sitting out.
  size_t outstanding() const {
    return in_flight_.size() + queued_.size() + sitting_out_.size();
  }

  /// Accepts one request. `payload` must carry correlation id `id`, unique
  /// among the outstanding requests; `tag` comes back in its Completion.
  void Submit(int64_t id, std::string payload, uint64_t tag);

  /// Sends what is queued, then blocks until at least one response
  /// completes (appended to `done`) or nothing is outstanding. Re-sends
  /// and re-dials happen inside. An error means the connection failed with
  /// the re-dial budget spent; outstanding() then counts the requests lost
  /// with it, and the window must not be polled again.
  util::Status Poll(std::vector<Completion>& done);

  /// Frames put on the wire, re-sends included.
  int64_t frames_sent() const { return frames_sent_; }
  int64_t overloaded_retries() const { return overloaded_retries_; }
  int64_t backend_down_retries() const { return backend_down_retries_; }
  int64_t reconnects() const { return reconnects_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    int64_t id = 0;
    uint64_t tag = 0;
    std::string payload;
    int retries = 0;
    Clock::time_point due;
  };

  /// Pairs one response frame with its request: completes it, or sends it
  /// to sit out before a re-send.
  void Settle(const std::string& payload, std::vector<Completion>& done);
  /// Replaces the broken connection and queues everything that was in
  /// flight on it; returns `cause` when the budget is spent.
  util::Status Redial(const util::Status& cause);

  net::FrameClient& client_;
  const RequestWindowOptions options_;
  /// options_.window, at least 1.
  const size_t window_;
  int reconnects_left_;

  /// id -> request for every frame on the wire.
  std::unordered_map<int64_t, Request> in_flight_;
  /// Accepted, waiting for a free slot on the wire.
  std::deque<Request> queued_;
  /// Answered not-applied, waiting for `due`. The sit-out is fixed, so
  /// this stays sorted by due time.
  std::deque<Request> sitting_out_;

  int64_t frames_sent_ = 0;
  int64_t overloaded_retries_ = 0;
  int64_t backend_down_retries_ = 0;
  int64_t reconnects_ = 0;
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_REQUEST_WINDOW_H_
