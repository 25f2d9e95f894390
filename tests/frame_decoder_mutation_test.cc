// Seeded mutation test for net::FrameDecoder, the length-prefixed framing
// every server and router connection runs on untrusted bytes. From one
// valid multi-frame stream it derives a fixed count of mutants (bit flips,
// truncations, insertions, deletions, rewritten length words) with a fixed
// seed. Each mutant must decode to the same frames and the same error
// whether it is fed whole or one byte at a time; no payload may exceed the
// cap; and once the decoder is poisoned, every later Next must fail with
// that error, even after more valid bytes arrive.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "tests/byte_mutator.h"

namespace auditgame::net {
namespace {

constexpr uint64_t kSeed = 0xf4a3e2026;
constexpr int kMutants = 1500;
// Small enough that rewritten length words cross it, large enough that the
// stream runs past the decoder's 4,096-byte compaction point.
constexpr size_t kCap = 2048;

struct Stream {
  std::string bytes;
  std::vector<std::string> payloads;
  std::vector<size_t> header_offsets;
};

Stream ValidStream() {
  Stream stream;
  uint8_t fill = 0;
  for (const size_t size : {size_t{0}, size_t{1}, size_t{17}, size_t{300},
                            size_t{1500}, kCap, size_t{3}, size_t{1200}}) {
    std::string payload(size, '\0');
    for (char& c : payload) c = static_cast<char>(fill++);
    stream.header_offsets.push_back(stream.bytes.size());
    stream.bytes += EncodeFrame(payload);
    stream.payloads.push_back(std::move(payload));
  }
  return stream;
}

// One mutant of the stream: a bit flip, truncation, insertion or
// deletion, or a rewritten length word (the cap and one past it among the
// choices).
std::string Mutate(testutil::ByteMutator& mutator, const Stream& stream) {
  std::string out = stream.bytes;
  const size_t kind = mutator.Below(testutil::ByteMutator::kGenericKinds + 1);
  if (kind < testutil::ByteMutator::kGenericKinds) {
    mutator.Apply(kind, &out);
  } else {
    const size_t at =
        stream.header_offsets[mutator.Below(stream.header_offsets.size())];
    mutator.RewriteField({at, kFrameHeaderBytes}, &out, {kCap, kCap + 1});
  }
  return out;
}

struct Decoded {
  std::vector<std::string> frames;
  util::Status error;
  // Bytes left unconsumed when the stream ended without an error.
  size_t buffered = 0;
};

// Feeds `bytes` to a fresh decoder in `chunk`-byte pieces, draining every
// complete frame after each piece and stopping at the first error.
Decoded Decode(const std::string& bytes, size_t chunk) {
  FrameDecoder decoder(kCap);
  Decoded out;
  for (size_t at = 0; at < bytes.size() && out.error.ok(); at += chunk) {
    decoder.Append(bytes.data() + at, std::min(chunk, bytes.size() - at));
    for (;;) {
      std::string payload;
      auto next = decoder.Next(&payload);
      if (!next.ok()) {
        out.error = next.status();
        break;
      }
      if (!*next) break;
      EXPECT_LE(payload.size(), kCap);
      out.frames.push_back(std::move(payload));
    }
  }
  if (out.error.ok()) {
    out.buffered = decoder.buffered();
    return out;
  }
  // Poisoned: every later call fails the same way, whatever arrives.
  for (int k = 0; k < 3; ++k) {
    decoder.Append(EncodeFrame("ok"));
    std::string payload;
    auto next = decoder.Next(&payload);
    EXPECT_FALSE(next.ok());
    if (!next.ok()) {
      EXPECT_EQ(next.status(), out.error);
    }
  }
  return out;
}

TEST(FrameDecoderMutationTest, ValidStreamDecodesWholeAndByteAtATime) {
  const Stream stream = ValidStream();
  ASSERT_GT(stream.bytes.size(), 4096u);
  for (const size_t chunk : {stream.bytes.size(), size_t{1}}) {
    const Decoded decoded = Decode(stream.bytes, chunk);
    EXPECT_TRUE(decoded.error.ok()) << decoded.error;
    EXPECT_EQ(decoded.frames, stream.payloads);
    EXPECT_EQ(decoded.buffered, 0u);
  }
}

TEST(FrameDecoderMutationTest, MutantsDecodeAlikeWholeAndByteAtATime) {
  const Stream stream = ValidStream();
  testutil::ByteMutator mutator(kSeed);
  int rejected = 0;
  int clean = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(mutator, stream);
    const Decoded whole = Decode(mutant, mutant.size() + 1);
    const Decoded bytewise = Decode(mutant, 1);
    ASSERT_EQ(whole.error, bytewise.error) << "mutant " << i;
    ASSERT_EQ(whole.frames, bytewise.frames) << "mutant " << i;
    ASSERT_EQ(whole.buffered, bytewise.buffered) << "mutant " << i;
    if (whole.error.ok()) {
      ++clean;
    } else {
      ++rejected;
    }
  }
  // A mutator that only ever hits one side tests nothing.
  EXPECT_GT(rejected, kMutants / 20);
  EXPECT_GT(clean, kMutants / 20);
}

}  // namespace
}  // namespace auditgame::net
