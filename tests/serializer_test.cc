#include "util/serializer.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace auditgame::util {
namespace {

TEST(Crc32Test, MatchesIeeeCheckVector) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, UpdateChainsIncrementally) {
  const std::string text = "the quick brown fox";
  uint32_t chained = Crc32(text.substr(0, 7));
  chained = Crc32Update(chained, text.substr(7));
  EXPECT_EQ(chained, Crc32(text));
}

/// The textbook bitwise CRC-32: the definition the table-driven one must
/// reproduce.
uint32_t ReferenceCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

std::string PseudoRandomBytes(size_t n) {
  std::string bytes(n, '\0');
  uint32_t x = 0x12345678u;
  for (char& c : bytes) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment) {
  const std::string buffer = PseudoRandomBytes(1024 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const std::string_view data =
          std::string_view(buffer).substr(offset, length);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32Test, UpdateChainsAtEverySplit) {
  const std::string buffer = PseudoRandomBytes(64);
  const std::string_view data(buffer);
  const uint32_t one_shot = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32Update(Crc32(data.substr(0, split)), data.substr(split)),
              one_shot)
        << "split at " << split;
  }
}

TEST(SerializerTest, ScalarRoundTrip) {
  uint8_t u8 = 0xAB;
  uint16_t u16 = 0xBEEF;
  uint32_t u32 = 0xDEADBEEFu;
  uint64_t u64 = 0x0123456789ABCDEFull;
  int i32 = -123456;
  int64_t i64 = -9876543210LL;
  size_t st = 987654321u;
  bool b = true;
  double f = -0.1;

  Serializer w = Serializer::Writer();
  w.U8(u8);
  w.U16(u16);
  w.U32(u32);
  w.U64(u64);
  w.I32(i32);
  w.I64(i64);
  w.SizeT(st);
  w.Bool(b);
  w.F64(f);
  ASSERT_TRUE(w.ok()) << w.status();

  uint8_t ru8 = 0;
  uint16_t ru16 = 0;
  uint32_t ru32 = 0;
  uint64_t ru64 = 0;
  int ri32 = 0;
  int64_t ri64 = 0;
  size_t rst = 0;
  bool rb = false;
  double rf = 0.0;
  Serializer r = Serializer::Reader(w.buffer());
  r.U8(ru8);
  r.U16(ru16);
  r.U32(ru32);
  r.U64(ru64);
  r.I32(ri32);
  r.I64(ri64);
  r.SizeT(rst);
  r.Bool(rb);
  r.F64(rf);
  r.ExpectExhausted();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(ru8, u8);
  EXPECT_EQ(ru16, u16);
  EXPECT_EQ(ru32, u32);
  EXPECT_EQ(ru64, u64);
  EXPECT_EQ(ri32, i32);
  EXPECT_EQ(ri64, i64);
  EXPECT_EQ(rst, st);
  EXPECT_EQ(rb, b);
  EXPECT_EQ(rf, f);
}

/// Lowercase hex of `bytes`, two digits per byte.
std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xF]);
  }
  return hex;
}

/// Hex of the bytes `stream` writes into a fresh Writer.
template <typename F>
std::string WrittenHex(F stream) {
  Serializer w = Serializer::Writer();
  stream(w);
  EXPECT_TRUE(w.ok()) << w.status();
  return ToHex(w.buffer());
}

// The exact bytes of each primitive. A round trip passes even when both
// directions change byte order together; these do not, and every
// snapshot body and fingerprint is built from these primitives.
TEST(SerializerTest, PrimitivesWriteGoldenBytes) {
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              uint8_t v = 0xAB;
              s.U8(v);
            }),
            "ab");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              uint16_t v = 0xBEEF;
              s.U16(v);
            }),
            "beef");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              uint32_t v = 0xDEADBEEFu;
              s.U32(v);
            }),
            "deadbeef");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              uint64_t v = 0x0123456789ABCDEFull;
              s.U64(v);
            }),
            "0123456789abcdef");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              int v = -2;
              s.I32(v);
            }),
            "fffffffffffffffe");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              int64_t v = -9876543210LL;
              s.I64(v);
            }),
            "fffffffdb34fe916");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              bool t = true, f = false;
              s.Bool(t);
              s.Bool(f);
            }),
            "0100");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              std::string v = "ab";
              s.Str(v);
            }),
            "00000000000000026162");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              std::vector<double> v = {1.0, -2.5};
              s.VecF64(v);
            }),
            "00000000000000023ff0000000000000c004000000000000");
  EXPECT_EQ(WrittenHex([](Serializer& s) {
              double a = 0.1, b = -0.0;
              s.F64(a);
              s.F64(b);
            }),
            "3fb999999999999a8000000000000000");
}

// The reader decodes the same golden bytes back to the same values.
TEST(SerializerTest, PrimitivesReadGoldenBytes) {
  const std::string bytes =
      std::string("\xab\xbe\xef\xde\xad\xbe\xef", 7) +
      std::string("\x01\x23\x45\x67\x89\xab\xcd\xef", 8) +
      std::string("\xff\xff\xff\xff\xff\xff\xff\xfe", 8) +
      std::string("\xff\xff\xff\xfd\xb3\x4f\xe9\x16", 8) + "\x01" +
      std::string("\x00\x00\x00\x00\x00\x00\x00\x02", 8) + "ab" +
      std::string("\x80\x00\x00\x00\x00\x00\x00\x00", 8);
  Serializer r = Serializer::Reader(bytes);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int i32 = 0;
  int64_t i64 = 0;
  bool b = false;
  std::string str;
  double f = 1.0;
  r.U8(u8);
  r.U16(u16);
  r.U32(u32);
  r.U64(u64);
  r.I32(i32);
  r.I64(i64);
  r.Bool(b);
  r.Str(str);
  r.F64(f);
  r.ExpectExhausted();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -2);
  EXPECT_EQ(i64, -9876543210LL);
  EXPECT_TRUE(b);
  EXPECT_EQ(str, "ab");
  EXPECT_EQ(f, 0.0);
  EXPECT_TRUE(std::signbit(f));
}

TEST(SerializerTest, DoubleRoundTripsAreBitExact) {
  // The durability contract: doubles survive as raw bit patterns — no
  // formatting, no renormalization. NaN payloads, -0.0, denormals and ULP
  // neighbours must all come back identical.
  std::vector<double> specials = {
      0.0,
      -0.0,
      1.0,
      std::nextafter(1.0, 2.0),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      0.1 + 0.2,  // famously != 0.3
  };
  Serializer w = Serializer::Writer();
  std::vector<double> to_write = specials;
  w.VecF64(to_write);
  ASSERT_TRUE(w.ok());

  std::vector<double> read;
  Serializer r = Serializer::Reader(w.buffer());
  r.VecF64(read);
  r.ExpectExhausted();
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(read.size(), specials.size());
  for (size_t i = 0; i < specials.size(); ++i) {
    uint64_t want = 0, got = 0;
    std::memcpy(&want, &specials[i], 8);
    std::memcpy(&got, &read[i], 8);
    EXPECT_EQ(got, want) << "double #" << i << " drifted";
  }
}

TEST(SerializerTest, StringAndVectorRoundTrip) {
  std::string str = std::string("embedded\0nul", 12);
  std::vector<int> vi = {-1, 0, 7, 1 << 30};
  std::vector<std::string> vs = {"", "a", "bb"};
  std::vector<std::vector<int>> vvi = {{}, {1}, {2, 3}};

  Serializer w = Serializer::Writer();
  w.Str(str);
  w.VecI32(vi);
  w.VecStr(vs);
  w.VecVecI32(vvi);
  ASSERT_TRUE(w.ok());

  std::string rstr;
  std::vector<int> rvi;
  std::vector<std::string> rvs;
  std::vector<std::vector<int>> rvvi;
  Serializer r = Serializer::Reader(w.buffer());
  r.Str(rstr);
  r.VecI32(rvi);
  r.VecStr(rvs);
  r.VecVecI32(rvvi);
  r.ExpectExhausted();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(rstr, str);
  EXPECT_EQ(rvi, vi);
  EXPECT_EQ(rvs, vs);
  EXPECT_EQ(rvvi, vvi);
}

TEST(SerializerTest, SectionVersionMismatchIsRejected) {
  Serializer w = Serializer::Writer();
  w.Section("thing", 2);
  double payload = 1.5;
  w.F64(payload);

  Serializer r = Serializer::Reader(w.buffer());
  r.Section("thing", 3);  // reader expects a different layout version
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();

  // Sticky: later reads are no-ops with zeroed outputs.
  double after = 42.0;
  r.F64(after);
  EXPECT_EQ(after, 0.0);
}

TEST(SerializerTest, SectionTagMismatchIsRejected) {
  Serializer w = Serializer::Writer();
  w.Section("policy", 1);
  Serializer r = Serializer::Reader(w.buffer());
  r.Section("shard", 1);
  EXPECT_FALSE(r.ok());
}

TEST(SerializerTest, TruncatedInputFailsInsteadOfMisreading) {
  Serializer w = Serializer::Writer();
  std::vector<double> v = {1.0, 2.0, 3.0};
  w.VecF64(v);
  const std::string full = w.buffer();
  // Every proper prefix must fail cleanly — no partial vectors, no huge
  // allocations from a torn length field.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<double> out;
    Serializer r = Serializer::Reader(std::string_view(full).substr(0, cut));
    r.VecF64(out);
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(SerializerTest, CorruptLengthFieldCannotDriveHugeAllocation) {
  // A length claiming more elements than remaining bytes must fail at the
  // length, before any allocation proportional to it.
  Serializer w = Serializer::Writer();
  uint64_t huge = ~0ull;
  w.U64(huge);
  std::vector<std::string> out;
  Serializer r = Serializer::Reader(w.buffer());
  r.VecStr(out);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(out.empty());
}

TEST(SerializerTest, TrailingBytesFailExpectExhausted) {
  Serializer w = Serializer::Writer();
  bool b = true;
  w.Bool(b);
  w.Bool(b);
  Serializer r = Serializer::Reader(w.buffer());
  bool rb = false;
  r.Bool(rb);
  r.ExpectExhausted();  // one Bool of the two consumed
  EXPECT_FALSE(r.ok());
}

TEST(SerializerTest, BoolRejectsNonCanonicalBytes) {
  std::string bytes = "\x02";
  Serializer r = Serializer::Reader(bytes);
  bool b = false;
  r.Bool(b);
  EXPECT_FALSE(r.ok());
}

TEST(SerializerTest, VecObjRoundTrip) {
  struct Point {
    int x = 0;
    int y = 0;
    void StreamState(Serializer& s) {
      s.I32(x);
      s.I32(y);
    }
    bool operator==(const Point& o) const { return x == o.x && y == o.y; }
  };
  std::vector<Point> points = {{1, 2}, {-3, 4}, {0, 0}};
  Serializer w = Serializer::Writer();
  w.VecObj(points);
  std::vector<Point> restored;
  Serializer r = Serializer::Reader(w.buffer());
  r.VecObj(restored);
  r.ExpectExhausted();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(restored, points);
}

TEST(SerializerTest, FingerprintObjectRoundTrip) {
  Fingerprint fp;
  fp.hi = 0x1122334455667788ull;
  fp.lo = 0x99AABBCCDDEEFF00ull;
  Serializer w = Serializer::Writer();
  w.Object(fp);
  Fingerprint restored;
  Serializer r = Serializer::Reader(w.buffer());
  r.Object(restored);
  r.ExpectExhausted();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored, fp);
}

}  // namespace
}  // namespace auditgame::util
