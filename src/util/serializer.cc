#include "util/serializer.h"

#include <array>

namespace auditgame::util {
namespace {

/// Slicing-by-8 tables: table[0] is the classic bytewise table, and
/// table[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

const CrcTables& SharedCrcTables() {
  static const CrcTables tables = BuildCrcTables();
  return tables;
}

/// Bytes p[0..3] as a little-endian word, assembled byte by byte so the
/// result does not depend on the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, std::string_view data) {
  const CrcTables& t = SharedCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32(std::string_view data) { return Crc32Update(0, data); }

void Serializer::Fail(Status status) {
  if (status_.ok()) status_ = std::move(status);
}

template <typename T>
void Serializer::Fixed(T& v) {
  if (!ok()) {
    if (reading()) v = 0;
    return;
  }
  if (writing()) {
    AppendBe(&buffer_, v);
  } else if (!input_.Read(&v)) {
    v = 0;
    Fail(InvalidArgumentError("serializer: truncated input (need " +
                              std::to_string(sizeof(T)) + " bytes, have " +
                              std::to_string(remaining()) + ")"));
  }
}

void Serializer::U8(uint8_t& v) { Fixed(v); }
void Serializer::U16(uint16_t& v) { Fixed(v); }
void Serializer::U32(uint32_t& v) { Fixed(v); }
void Serializer::U64(uint64_t& v) { Fixed(v); }

void Serializer::I32(int& v) {
  int64_t wide = v;
  I64(wide);
  if (reading()) v = static_cast<int>(wide);
}

void Serializer::I64(int64_t& v) {
  uint64_t bits = static_cast<uint64_t>(v);
  U64(bits);
  if (reading()) v = static_cast<int64_t>(bits);
}

void Serializer::SizeT(size_t& v) {
  uint64_t wide = v;
  U64(wide);
  if (reading()) v = static_cast<size_t>(wide);
}

void Serializer::Bool(bool& v) {
  uint8_t byte = v ? 1 : 0;
  U8(byte);
  if (reading()) {
    if (byte > 1) {
      Fail(InvalidArgumentError("serializer: invalid bool byte"));
      v = false;
      return;
    }
    v = byte != 0;
  }
}

void Serializer::F64(double& v) {
  uint64_t bits = DoubleBits(v);
  U64(bits);
  if (reading()) v = DoubleFromBits(bits);
}

uint64_t Serializer::Length(size_t size) {
  uint64_t n = size;
  U64(n);
  if (reading() && ok() && n > remaining()) {
    Fail(InvalidArgumentError("serializer: length " + std::to_string(n) +
                              " exceeds remaining input (" +
                              std::to_string(remaining()) + " bytes)"));
    return 0;
  }
  return ok() ? n : 0;
}

void Serializer::Str(std::string& v) {
  uint64_t n = Length(v.size());
  if (!ok()) {
    if (reading()) v.clear();
    return;
  }
  if (reading()) {
    std::string_view bytes;
    input_.ReadBytes(static_cast<size_t>(n), &bytes);
    v.assign(bytes);
  } else {
    buffer_.append(v);
  }
}

void Serializer::VecF64(std::vector<double>& v) {
  uint64_t n = Length(v.size());
  if (!ok()) {
    if (reading()) v.clear();
    return;
  }
  if (reading()) v.assign(static_cast<size_t>(n), 0.0);
  for (double& x : v) {
    F64(x);
    if (!ok()) return;
  }
}

void Serializer::VecI32(std::vector<int>& v) {
  uint64_t n = Length(v.size());
  if (!ok()) {
    if (reading()) v.clear();
    return;
  }
  if (reading()) v.assign(static_cast<size_t>(n), 0);
  for (int& x : v) {
    I32(x);
    if (!ok()) return;
  }
}

void Serializer::VecStr(std::vector<std::string>& v) {
  uint64_t n = Length(v.size());
  if (!ok()) {
    if (reading()) v.clear();
    return;
  }
  if (reading()) v.assign(static_cast<size_t>(n), std::string());
  for (std::string& s : v) {
    Str(s);
    if (!ok()) return;
  }
}

void Serializer::VecVecI32(std::vector<std::vector<int>>& v) {
  uint64_t n = Length(v.size());
  if (!ok()) {
    if (reading()) v.clear();
    return;
  }
  if (reading()) v.assign(static_cast<size_t>(n), std::vector<int>());
  for (std::vector<int>& inner : v) {
    VecI32(inner);
    if (!ok()) return;
  }
}

void Serializer::Section(std::string_view tag, uint32_t version) {
  std::string stored_tag(tag);
  Str(stored_tag);
  if (reading() && ok() && stored_tag != tag) {
    Fail(InvalidArgumentError("serializer: section tag mismatch (expected '" +
                              std::string(tag) + "', found '" + stored_tag +
                              "')"));
  }
  uint32_t stored_version = version;
  U32(stored_version);
  if (reading() && ok() && stored_version != version) {
    Fail(InvalidArgumentError(
        "serializer: section '" + std::string(tag) + "' version mismatch " +
        "(stream has v" + std::to_string(stored_version) +
        ", this build reads v" + std::to_string(version) + ")"));
  }
}

void Serializer::ExpectExhausted() {
  if (!ok() || !reading()) return;
  if (remaining() != 0) {
    Fail(InvalidArgumentError("serializer: " + std::to_string(remaining()) +
                              " trailing bytes after final field"));
  }
}

}  // namespace auditgame::util
