#ifndef AUDIT_GAME_TESTS_BYTE_MUTATOR_H_
#define AUDIT_GAME_TESTS_BYTE_MUTATOR_H_

// Seeded byte-level mutations shared by the decoder mutation tests. Each
// test draws its mutants from one fixed-seed stream, so every run tests
// the same mutants.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

namespace auditgame::testutil {

/// A big-endian integer field of a binary payload, 1 to 8 bytes wide.
struct Field {
  size_t offset;
  size_t width;
};

class ByteMutator {
 public:
  /// Mutations Apply knows, numbered 0 .. kGenericKinds - 1.
  static constexpr size_t kGenericKinds = 4;

  explicit ByteMutator(uint64_t seed) : rng_(seed) {}

  /// A value in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }

  /// Generic mutation `kind` of the non-empty `out`: 0 flips one to three
  /// bits, 1 truncates, 2 inserts one to eight random bytes, 3 deletes one
  /// to sixteen bytes.
  void Apply(size_t kind, std::string* out) {
    switch (kind) {
      case 0:
        for (size_t n = 1 + Below(3); n > 0; --n) {
          (*out)[Below(out->size())] ^= static_cast<char>(1u << Below(8));
        }
        break;
      case 1:
        out->resize(Below(out->size()));
        break;
      case 2:
        out->insert(Below(out->size() + 1), RandomBytes(1 + Below(8)));
        break;
      default:
        out->erase(Below(out->size()), 1 + Below(16));
        break;
    }
  }

  /// Overwrites `field` of `out` with 0, 1, its value minus or plus one,
  /// the field's maximum, a random value or one of `extra`, masked to the
  /// field's width.
  void RewriteField(const Field& field, std::string* out,
                    std::initializer_list<uint64_t> extra = {}) {
    uint64_t value = 0;
    for (size_t i = 0; i < field.width; ++i) {
      value = value << 8 | static_cast<unsigned char>((*out)[field.offset + i]);
    }
    const uint64_t max = field.width >= 8
                             ? ~uint64_t{0}
                             : (uint64_t{1} << (8 * field.width)) - 1;
    std::vector<uint64_t> choices = {0,         1,   value - 1,
                                     value + 1, max, rng_() & max};
    choices.insert(choices.end(), extra);
    value = choices[Below(choices.size())] & max;
    for (size_t i = field.width; i > 0; --i, value >>= 8) {
      (*out)[field.offset + i - 1] = static_cast<char>(value & 0xff);
    }
  }

 private:
  std::string RandomBytes(size_t n) {
    std::string bytes(n, '\0');
    for (char& c : bytes) c = static_cast<char>(rng_() & 0xff);
    return bytes;
  }

  std::mt19937_64 rng_;
};

}  // namespace auditgame::testutil

#endif  // AUDIT_GAME_TESTS_BYTE_MUTATOR_H_
