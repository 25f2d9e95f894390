#include "math/kernels.h"

#include <cmath>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace auditgame::math {
namespace {

// Mixed-magnitude values so reassociation would actually change bits: a
// reduction that merely "approximately agrees" with the canonical order
// fails these tests, which compare bit patterns.
std::vector<double> RandomVector(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-12, 12);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::ldexp(mantissa(rng), exponent(rng));
  }
  return v;
}

bool SameBits(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// The canonical blocked order, written out the slow way.
double ReferenceBlockedSum(const std::vector<double>& terms) {
  double lane[kBlockLanes] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < terms.size(); ++i) lane[i & 3] += terms[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// Every n in 0-19 (each tail length after 0-4 full blocks), then large.
std::vector<size_t> ReductionSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 0; n < 20; ++n) sizes.push_back(n);
  for (size_t n : {63u, 64u, 255u, 257u, 1000u, 1024u, 4097u}) {
    sizes.push_back(n);
  }
  return sizes;
}

TEST(KernelsTest, SumFollowsCanonicalBlockedOrder) {
  for (size_t n : ReductionSizes()) {
    const std::vector<double> x = RandomVector(n, 11 + n);
    EXPECT_TRUE(SameBits(Sum(x.data(), n), ReferenceBlockedSum(x)))
        << "n=" << n;
  }
}

TEST(KernelsTest, DotAndAbsDiffSumFollowCanonicalBlockedOrder) {
  for (size_t n : ReductionSizes()) {
    const std::vector<double> x = RandomVector(n, 101 + n);
    const std::vector<double> y = RandomVector(n, 202 + n);
    std::vector<double> products(n), distances(n);
    for (size_t i = 0; i < n; ++i) {
      products[i] = x[i] * y[i];
      distances[i] = std::fabs(x[i] - y[i]);
    }
    EXPECT_TRUE(SameBits(Dot(x.data(), y.data(), n),
                         ReferenceBlockedSum(products)))
        << "n=" << n;
    EXPECT_TRUE(SameBits(AbsDiffSum(x.data(), y.data(), n),
                         ReferenceBlockedSum(distances)))
        << "n=" << n;
  }
}

TEST(KernelsTest, ElementwiseKernelsRoundOncePerElement) {
  for (size_t n : {1u, 2u, 3u, 5u, 8u, 31u, 200u}) {
    const std::vector<double> x = RandomVector(n, 7 + n);
    const std::vector<double> y0 = RandomVector(n, 77 + n);
    const double a = 0.371;

    std::vector<double> axpy = y0, add = y0, scale = y0;
    Axpy(a, x.data(), axpy.data(), n);
    Add(x.data(), add.data(), n);
    Scale(a, scale.data(), n);

    for (size_t i = 0; i < n; ++i) {
      // Two roundings (product, then sum): a fused multiply-add would
      // round once and fail this.
      const double product = a * x[i];
      EXPECT_TRUE(SameBits(axpy[i], y0[i] + product))
          << "n=" << n << " i=" << i;
      EXPECT_TRUE(SameBits(add[i], y0[i] + x[i])) << "n=" << n << " i=" << i;
      EXPECT_TRUE(SameBits(scale[i], y0[i] * a)) << "n=" << n << " i=" << i;
    }
  }
}

// Every shift up to n for n < 20 covers each saturating-tail length in
// 0-19; the large n keep their spot checks.
std::vector<std::pair<size_t, size_t>> ConvolveCases() {
  std::vector<std::pair<size_t, size_t>> cases;
  for (size_t n = 1; n < 20; ++n) {
    for (size_t shift = 0; shift <= n; ++shift) cases.emplace_back(n, shift);
  }
  for (size_t n : {33u, 128u}) {
    for (size_t shift : {size_t{0}, size_t{1}, n / 2, n - 1, n}) {
      cases.emplace_back(n, shift);
    }
  }
  return cases;
}

TEST(KernelsTest, ConvolveShiftSaturateMatchesDefinition) {
  for (const auto& [n, shift] : ConvolveCases()) {
    const std::vector<double> p = RandomVector(n, 5 + n + shift);
    const std::vector<double> base = RandomVector(n, 55 + n + shift);
    const double q = 0.625;

    // Reference: element-wise adds over the non-saturating range, then
    // one blocked-order reduction of the saturating tail.
    std::vector<double> expected = base;
    const size_t dense = n - shift;
    for (size_t s = 0; s < dense; ++s) expected[s + shift] += q * p[s];
    std::vector<double> tail_terms;
    for (size_t s = dense; s < n; ++s) tail_terms.push_back(q * p[s]);
    expected[n - 1] += ReferenceBlockedSum(tail_terms);

    std::vector<double> next = base;
    ConvolveShiftSaturate(p.data(), n, shift, q, next.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(next[i], expected[i]))
          << "n=" << n << " shift=" << shift << " i=" << i;
    }
  }
}

TEST(KernelsTest, BlockedAccumulatorMatchesSumBitwise) {
  for (size_t n : {0u, 3u, 4u, 100u, 1001u}) {
    const std::vector<double> x = RandomVector(n, 31 + n);
    BlockedAccumulator acc;
    for (double v : x) acc.Add(v);
    EXPECT_TRUE(SameBits(acc.Total(), Sum(x.data(), n))) << "n=" << n;
  }
}

}  // namespace
}  // namespace auditgame::math
