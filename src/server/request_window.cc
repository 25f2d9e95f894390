#include "server/request_window.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "server/binary_codec.h"
#include "util/json.h"

namespace auditgame::server {

namespace {
/// How long a dial waits for a listener that is not up yet (CI starts
/// servers in the background and races them).
constexpr int kConnectWaitMs = 10000;
}  // namespace

util::StatusOr<ResponseEnvelope> DecodeResponse(std::string_view payload) {
  ResponseEnvelope op;
  if (IsBinaryFrame(payload)) {
    ASSIGN_OR_RETURN(BinaryResponse response, DecodeBinaryResponse(payload));
    op.id = response.correlation_id;
    switch (response.status) {
      case kBinaryStatusOk:
        op.status = ResponseEnvelope::Status::kOk;
        break;
      case kBinaryStatusOverloaded:
        op.status = ResponseEnvelope::Status::kOverloaded;
        break;
      case kBinaryStatusBackendDown:
        op.status = ResponseEnvelope::Status::kBackendDown;
        break;
      default:
        op.status = ResponseEnvelope::Status::kError;
        break;
    }
    if (response.verb == kBinaryVerbSolveCycle &&
        response.status == kBinaryStatusOk) {
      op.has_cycle = true;
      op.cycle = response.cycle;
    }
    op.message = std::move(response.message);
    return op;
  }
  ASSIGN_OR_RETURN(util::JsonValue doc,
                   util::JsonValue::Parse(std::string(payload)));
  ASSIGN_OR_RETURN(double id, doc.GetNumber("id"));
  op.id = static_cast<int64_t>(id);
  ASSIGN_OR_RETURN(std::string status, doc.GetString("status"));
  if (status == "ok") {
    op.status = ResponseEnvelope::Status::kOk;
  } else if (status == "overloaded") {
    op.status = ResponseEnvelope::Status::kOverloaded;
  } else if (status == "backend_down") {
    op.status = ResponseEnvelope::Status::kBackendDown;
  } else {
    op.status = ResponseEnvelope::Status::kError;
  }
  if (auto cycle = doc.GetNumber("cycle"); cycle.ok()) {
    op.has_cycle = true;
    op.cycle = static_cast<int64_t>(*cycle);
  }
  if (const util::JsonValue* m = doc.Find("message");
      m != nullptr && m->is_string()) {
    op.message = m->as_string();
  }
  return op;
}

util::Status RequestWindow::Completion::ToStatus() const {
  switch (kind) {
    case Kind::kUnmatched:
      return util::InternalError("unmatched response id " +
                                 std::to_string(response.id));
    case Kind::kUndecodable:
      return util::InternalError(response.message);
    case Kind::kAnswered:
      break;
  }
  switch (response.status) {
    case ResponseEnvelope::Status::kOk:
      return util::OkStatus();
    case ResponseEnvelope::Status::kError:
      return util::InternalError(
          "server rejected request: " +
          (response.message.empty() ? "(no message)" : response.message));
    default:
      return util::ResourceExhaustedError(
          "still not applied after " + std::to_string(retries) + " retries");
  }
}

util::StatusOr<net::FrameClient> RequestWindow::Dial(
    const net::HostPort& target, int timeout_ms) {
  ASSIGN_OR_RETURN(net::FrameClient client,
                   net::FrameClient::Connect(target.host, target.port,
                                             kConnectWaitMs));
  if (timeout_ms > 0) RETURN_IF_ERROR(client.SetReceiveTimeout(timeout_ms));
  return client;
}

RequestWindow::RequestWindow(net::FrameClient& client,
                             RequestWindowOptions options)
    : client_(client),
      options_(std::move(options)),
      window_(static_cast<size_t>(std::max(1, options_.window))),
      reconnects_left_(options_.reconnects) {}

bool RequestWindow::HasRoom() const {
  return in_flight_.size() + queued_.size() < window_;
}

void RequestWindow::Submit(int64_t id, std::string payload, uint64_t tag) {
  Request request;
  request.id = id;
  request.tag = tag;
  request.payload = std::move(payload);
  queued_.push_back(std::move(request));
}

util::Status RequestWindow::Poll(std::vector<Completion>& done) {
  const size_t done_before = done.size();
  for (;;) {
    const Clock::time_point now = Clock::now();
    while (!sitting_out_.empty() && sitting_out_.front().due <= now) {
      queued_.push_back(std::move(sitting_out_.front()));
      sitting_out_.pop_front();
    }
    // Top the wire up, then pay one send for everything queued.
    bool sent_any = false;
    while (!queued_.empty() && in_flight_.size() < window_) {
      Request request = std::move(queued_.front());
      queued_.pop_front();
      client_.QueueSend(request.payload);
      ++frames_sent_;
      const int64_t id = request.id;
      in_flight_.emplace(id, std::move(request));
      sent_any = true;
    }
    if (sent_any) {
      if (util::Status sent = client_.FlushSends(); !sent.ok()) {
        RETURN_IF_ERROR(Redial(sent));
        continue;
      }
    }
    if (in_flight_.empty()) {
      if (sitting_out_.empty()) return util::OkStatus();
      std::this_thread::sleep_until(sitting_out_.front().due);
      continue;
    }

    // One blocking receive, then drain every response already buffered:
    // a burst of pipelined responses costs one recv(2).
    auto first = client_.Receive();
    if (!first.ok()) {
      RETURN_IF_ERROR(Redial(first.status()));
      continue;
    }
    Settle(std::move(*first), done);
    for (;;) {
      std::string payload;
      auto buffered = client_.ReceiveBuffered(&payload);
      if (!buffered.ok()) {
        RETURN_IF_ERROR(Redial(buffered.status()));
        break;
      }
      if (!*buffered) break;
      Settle(std::move(payload), done);
    }
    if (done.size() > done_before) return util::OkStatus();
  }
}

void RequestWindow::Settle(std::string payload,
                           std::vector<Completion>& done) {
  Completion completion;
  completion.kind = Completion::Kind::kUnmatched;
  if (auto envelope = DecodeResponse(payload); envelope.ok()) {
    completion.response = std::move(*envelope);
  } else {
    completion.kind = Completion::Kind::kUndecodable;
    completion.response.message = envelope.status().ToString();
  }
  const auto it = in_flight_.find(completion.response.id);
  if (completion.kind == Completion::Kind::kUnmatched &&
      it != in_flight_.end()) {
    Request request = std::move(it->second);
    in_flight_.erase(it);
    const ResponseEnvelope::Status status = completion.response.status;
    if ((status == ResponseEnvelope::Status::kOverloaded ||
         status == ResponseEnvelope::Status::kBackendDown) &&
        request.retries < options_.max_retries) {
      ++request.retries;
      ++(status == ResponseEnvelope::Status::kOverloaded
             ? overloaded_retries_
             : backend_down_retries_);
      request.due =
          Clock::now() + std::chrono::milliseconds(options_.retry_backoff_ms);
      sitting_out_.push_back(std::move(request));
      return;
    }
    completion.kind = Completion::Kind::kAnswered;
    completion.tag = request.tag;
    completion.retries = request.retries;
  }
  completion.payload = std::move(payload);
  done.push_back(std::move(completion));
}

util::Status RequestWindow::Redial(const util::Status& cause) {
  if (reconnects_left_ <= 0) return cause;
  --reconnects_left_;
  auto fresh = Dial(options_.target, options_.timeout_ms);
  if (!fresh.ok()) {
    return util::Status(fresh.status().code(),
                        "re-dial after \"" + cause.ToString() +
                            "\" failed: " + fresh.status().message());
  }
  client_ = std::move(*fresh);
  ++reconnects_;
  // Everything in flight was lost with the socket. Re-send it first, in
  // id order, ahead of requests never sent.
  std::vector<Request> lost;
  for (auto& [id, request] : in_flight_) lost.push_back(std::move(request));
  in_flight_.clear();
  std::sort(lost.begin(), lost.end(),
            [](const Request& a, const Request& b) { return a.id < b.id; });
  queued_.insert(queued_.begin(), std::make_move_iterator(lost.begin()),
                 std::make_move_iterator(lost.end()));
  return util::OkStatus();
}

}  // namespace auditgame::server
