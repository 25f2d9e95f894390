#ifndef AUDIT_GAME_UTIL_SERIALIZER_H_
#define AUDIT_GAME_UTIL_SERIALIZER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/hash.h"
#include "util/status.h"

namespace auditgame::util {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`, the checksum the
/// durability file formats frame every payload with. `Crc32Update` chains
/// incrementally: Crc32(a + b) == Crc32Update(Crc32(a), b). Computed
/// eight bytes per step (slicing-by-8); the values are the bytewise
/// algorithm's on every host.
uint32_t Crc32(std::string_view data);
uint32_t Crc32Update(uint32_t crc, std::string_view data);

/// ---- The byte layer ----------------------------------------------------
///
/// The one encoding under every format the project writes: the frame
/// header, the binary codec, the WAL, the snapshot header and Serializer
/// streams. Integers are fixed-width big-endian, doubles their raw
/// IEEE-754 bits, so a decoded value is the encoded one bit for bit on
/// every host. `T` is an unsigned integer type.

template <typename T>
inline void StoreBe(char* out, T v) {
  static_assert(std::is_unsigned_v<T>, "StoreBe takes an unsigned type");
  for (size_t i = sizeof(T); i-- > 0; v >>= 8) {
    out[i] = static_cast<char>(v & 0xFFu);
  }
}

template <typename T>
inline T LoadBe(const char* in) {
  static_assert(std::is_unsigned_v<T>, "LoadBe takes an unsigned type");
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v << 8 | static_cast<unsigned char>(in[i]));
  }
  return v;
}

template <typename T>
inline void AppendBe(std::string* out, T v) {
  char bytes[sizeof(T)];
  StoreBe(bytes, v);
  out->append(bytes, sizeof(T));
}

inline uint64_t DoubleBits(double v) {
  static_assert(sizeof(uint64_t) == sizeof(double), "IEEE-754 doubles");
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double DoubleFromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline void AppendF64(std::string* out, double v) {
  AppendBe(out, DoubleBits(v));
}

/// Bounds-checked sequential reads over untrusted bytes. A read that would
/// run past the end returns false and consumes nothing.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Read(T* v) {
    if (remaining() < sizeof(T)) return false;
    *v = LoadBe<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  bool ReadF64(double* v) {
    uint64_t bits = 0;
    if (!Read(&bits)) return false;
    *v = DoubleFromBits(bits);
    return true;
  }

  /// The next `n` bytes, as a view into the input.
  bool ReadBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// A bidirectional, versioned, endian-stable state stream — the single
/// interface every stateful layer implements via a
/// `StreamState(Serializer&)` method that both saves and restores it (the
/// direction lives in the serializer, so the field list is written exactly
/// once and read/write can never skew).
///
/// Encoding: the byte layer above (bit-for-bit round trips, because
/// snapshot/WAL replay must reproduce solver state exactly); strings and
/// vectors carry a u64 length prefix.
///
/// Only logical state is streamed — what replay needs to reproduce later
/// responses and state. Counters and wall-clock measurements stay in
/// memory and restart with the process, so the bytes a Writer produces are
/// also the state's content fingerprint (see FingerprintState).
///
/// Modes:
///   - Writer(): appends to an internal buffer (never fails).
///   - Reader(data): consumes `data` with sticky error handling — any
///     bounds violation, tag mismatch, or version mismatch sets status()
///     and every later operation no-ops with zeroed outputs, so callers
///     check ok() once at the end instead of after every field.
///
/// Versioning: each composite type opens its block with
/// Section("tag", kVersion). On read the tag must match and the stored
/// version must equal the current one — a snapshot from a build with a
/// different layout is rejected with a clear error instead of being
/// misparsed.
class Serializer {
 public:
  static Serializer Writer() { return Serializer(Mode::kWrite); }
  static Serializer Reader(std::string_view data) {
    Serializer s(Mode::kRead);
    s.input_ = ByteReader(data);
    return s;
  }

  bool writing() const { return mode_ == Mode::kWrite; }
  bool reading() const { return mode_ == Mode::kRead; }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Marks the stream failed; every later operation no-ops. The first
  /// failure wins (later ones are usually cascades of the first).
  void Fail(Status status);

  /// Opens a versioned block. Write: emits the tag and version. Read:
  /// fails unless the stored tag and version match exactly.
  void Section(std::string_view tag, uint32_t version);

  void U8(uint8_t& v);
  void U16(uint16_t& v);
  void U32(uint32_t& v);
  void U64(uint64_t& v);
  void I32(int& v);
  void I64(int64_t& v);
  void SizeT(size_t& v);
  void Bool(bool& v);
  void F64(double& v);

  /// Length-prefixed string. Read rejects lengths beyond the remaining
  /// input, so a corrupt length field can never drive a huge allocation.
  void Str(std::string& v);

  void VecF64(std::vector<double>& v);
  void VecI32(std::vector<int>& v);
  void VecStr(std::vector<std::string>& v);
  void VecVecI32(std::vector<std::vector<int>>& v);

  /// Streams a composite implementing StreamState(Serializer&).
  template <typename T>
  void Object(T& v) {
    if (!ok()) return;
    v.StreamState(*this);
  }

  /// Vector of composites; T must be default-constructible for the read
  /// path.
  template <typename T>
  void VecObj(std::vector<T>& v) {
    uint64_t n = Length(v.size());
    if (!ok()) return;
    if (reading()) v.assign(static_cast<size_t>(n), T{});
    for (T& item : v) {
      Object(item);
      if (!ok()) return;
    }
  }

  void Object(Fingerprint& v) {
    U64(v.hi);
    U64(v.lo);
  }

  /// Write mode: the bytes produced so far.
  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

  /// Read mode: unconsumed bytes.
  size_t remaining() const { return input_.remaining(); }
  /// Read mode: fails unless every input byte was consumed (trailing
  /// garbage means the producer and consumer disagree about the layout).
  void ExpectExhausted();

 private:
  enum class Mode { kWrite, kRead };

  explicit Serializer(Mode mode) : mode_(mode) {}

  /// Streams a length field, validating it against the remaining input on
  /// read (each element is at least one byte). Returns the length.
  uint64_t Length(size_t size);

  /// Streams one fixed-width unsigned integer.
  template <typename T>
  void Fixed(T& v);

  Mode mode_;
  Status status_ = OkStatus();
  std::string buffer_;                    // write mode
  ByteReader input_{std::string_view()};  // read mode
};

/// Content fingerprint of any StreamState-bearing value: the fingerprint
/// of its Writer bytes. Used by recovery verification: two independent
/// recoveries of the same snapshot + WAL must produce equal fingerprints.
template <typename T>
Fingerprint FingerprintState(T& v) {
  Serializer s = Serializer::Writer();
  v.StreamState(s);
  FingerprintBuilder fp;
  fp.Append(s.buffer());
  return fp.Build();
}

}  // namespace auditgame::util

#endif  // AUDIT_GAME_UTIL_SERIALIZER_H_
