#include "net/frame.h"

#include <cstdlib>

#include "util/serializer.h"

namespace auditgame::net {

std::string EncodeFrame(std::string_view payload) {
  // A payload that does not fit the 4-byte length word cannot be framed;
  // truncating the length silently would desynchronize the stream, so an
  // impossible size is a programming error (every real payload is bounded
  // far lower by the decoder's cap).
  if (payload.size() > 0xffffffffu) std::abort();
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  util::AppendBe(&frame, n);
  frame.append(payload);
  return frame;
}

void FrameDecoder::Append(const char* data, size_t size) {
  buffer_.append(data, size);
}

util::StatusOr<bool> FrameDecoder::Next(std::string* payload) {
  if (!poisoned_.ok()) return poisoned_;
  if (buffered() < kFrameHeaderBytes) return false;

  const uint32_t n = util::LoadBe<uint32_t>(buffer_.data() + consumed_);
  if (n > max_payload_) {
    poisoned_ = util::ResourceExhaustedError(
        "frame payload of " + std::to_string(n) + " bytes exceeds the " +
        std::to_string(max_payload_) + "-byte cap");
    return poisoned_;
  }
  if (buffered() < kFrameHeaderBytes + n) return false;

  payload->assign(buffer_, consumed_ + kFrameHeaderBytes, n);
  consumed_ += kFrameHeaderBytes + n;
  // Compact once the dead prefix dominates, so a long-lived connection's
  // buffer stays proportional to its unconsumed bytes.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return true;
}

}  // namespace auditgame::net
