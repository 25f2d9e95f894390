#include "math/kernels.h"

#include <cmath>

namespace auditgame::math {
namespace {

// Blocked-order sum of a * x[i]: each term rounded once, then summed in the
// canonical order — the saturating tail of ConvolveShiftSaturate.
double ScaledSum(double a, const double* x, size_t n) {
  double lane[kBlockLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  const size_t n4 = n & ~(kBlockLanes - 1);
  for (; i < n4; i += 4) {
    lane[0] += a * x[i];
    lane[1] += a * x[i + 1];
    lane[2] += a * x[i + 2];
    lane[3] += a * x[i + 3];
  }
  for (; i < n; ++i) lane[i & 3] += a * x[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace

// The reductions spell out the canonical blocked order with four explicit
// accumulators. No compiler reassociates floating-point additions without
// -ffast-math, and -ffp-contract=off keeps it from fusing the mul+add
// pairs, so these loops compute exactly the order kernels.h documents.

double Sum(const double* x, size_t n) {
  double lane[kBlockLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  const size_t n4 = n & ~(kBlockLanes - 1);
  for (; i < n4; i += 4) {
    lane[0] += x[i];
    lane[1] += x[i + 1];
    lane[2] += x[i + 2];
    lane[3] += x[i + 3];
  }
  for (; i < n; ++i) lane[i & 3] += x[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double Dot(const double* x, const double* y, size_t n) {
  double lane[kBlockLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  const size_t n4 = n & ~(kBlockLanes - 1);
  for (; i < n4; i += 4) {
    lane[0] += x[i] * y[i];
    lane[1] += x[i + 1] * y[i + 1];
    lane[2] += x[i + 2] * y[i + 2];
    lane[3] += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) lane[i & 3] += x[i] * y[i];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double AbsDiffSum(const double* x, const double* y, size_t n) {
  double lane[kBlockLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  const size_t n4 = n & ~(kBlockLanes - 1);
  for (; i < n4; i += 4) {
    lane[0] += std::fabs(x[i] - y[i]);
    lane[1] += std::fabs(x[i + 1] - y[i + 1]);
    lane[2] += std::fabs(x[i + 2] - y[i + 2]);
    lane[3] += std::fabs(x[i + 3] - y[i + 3]);
  }
  for (; i < n; ++i) lane[i & 3] += std::fabs(x[i] - y[i]);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

void Axpy(double a, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void Add(const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

void Scale(double a, double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

void ConvolveShiftSaturate(const double* p, size_t n, size_t shift, double q,
                           double* next) {
  if (n == 0) return;
  // Non-saturating range: destinations s + shift land inside [shift, n).
  const size_t dense = n - shift;
  Axpy(q, p, next + shift, dense);
  // Saturating tail: every remaining source cell folds into next[n - 1],
  // reduced in canonical blocked order.
  if (shift > 0) next[n - 1] += ScaledSum(q, p + dense, shift);
}

double SparseDot(const std::pair<int, double>* terms, size_t n,
                 const double* y) {
  // Gather-bound and short: plain sequential order.
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) total += terms[k].second * y[terms[k].first];
  return total;
}

}  // namespace auditgame::math
