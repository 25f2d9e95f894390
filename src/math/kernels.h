#ifndef AUDIT_GAME_MATH_KERNELS_H_
#define AUDIT_GAME_MATH_KERNELS_H_

#include <cmath>
#include <cstddef>

namespace auditgame::math {

/// One home for the solver core's hot inner loops: dot/axpy/scaled-add,
/// blocked-order sums, the detection prefix convolution and weighted-tail
/// accumulation.
///
/// Determinism contract: reductions follow one canonical order — the
/// *blocked* order with kBlockLanes = 4 independent accumulators:
///
///   lane[l] += x[4k + l]          (tail elements continue round-robin)
///   total    = (lane[0] + lane[1]) + (lane[2] + lane[3])
///
/// The scalar loops below are the definition of that order; there is no
/// other implementation and no runtime dispatch. They are inline so every
/// caller's short dots (Ftran/Btran rows, Pal tails) compile into its own
/// loop, and the tail (at most 3 elements after the last full block) names
/// its lanes explicitly, so the four accumulators stay in registers. No
/// FMA is ever used: the library builds with -ffp-contract=off, so a
/// compiler targeting an FMA-capable CPU cannot fuse a mul+add and round
/// once where the definition rounds twice. Element-wise kernels (axpy,
/// scale) round once per element. See docs/DESIGN.md "Numeric kernels and
/// solver scratch".
///
/// The blocked order is the canonical semantics of the library: results
/// differ from a naive left-to-right sum by the usual reassociation ULPs,
/// and every caller, every committed BENCH baseline and the golden solve
/// fingerprints in tests/cggs_determinism_test.cc are defined against it.

inline constexpr size_t kBlockLanes = 4;

namespace internal {

// The canonical blocked-order sum of term(0), ..., term(n - 1). No
// compiler reassociates floating-point additions without -ffast-math, so
// this computes exactly the order documented above.
template <typename Term>
inline double BlockedSum(size_t n, Term term) {
  double lane[kBlockLanes] = {0.0, 0.0, 0.0, 0.0};
  const size_t n4 = n & ~(kBlockLanes - 1);
  for (size_t i = 0; i < n4; i += 4) {
    lane[0] += term(i);
    lane[1] += term(i + 1);
    lane[2] += term(i + 2);
    lane[3] += term(i + 3);
  }
  const size_t r = n - n4;
  if (r > 0) lane[0] += term(n4);
  if (r > 1) lane[1] += term(n4 + 1);
  if (r > 2) lane[2] += term(n4 + 2);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace internal

/// ---- Reductions (canonical blocked order) ------------------------------

/// sum_i x[i].
inline double Sum(const double* x, size_t n) {
  return internal::BlockedSum(n, [x](size_t i) { return x[i]; });
}

/// sum_i x[i] * y[i]. The weighted-tail accumulation of detection
/// (prefix-probability x conditional-detection tables) and the dense dots
/// of Ftran/Btran are this kernel.
inline double Dot(const double* x, const double* y, size_t n) {
  return internal::BlockedSum(n, [x, y](size_t i) { return x[i] * y[i]; });
}

/// sum_i |x[i] - y[i]| — the total-variation inner loop.
inline double AbsDiffSum(const double* x, const double* y, size_t n) {
  return internal::BlockedSum(
      n, [x, y](size_t i) { return std::fabs(x[i] - y[i]); });
}

/// ---- Element-wise ------------------------------------------------------

/// y[i] += a * x[i].
inline void Axpy(double a, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// y[i] += x[i].
inline void Add(const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += x[i];
}

/// x[i] *= a. PMF truncation/renormalization is Sum + Scale.
inline void Scale(double a, double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

/// ---- Composite solver kernels ------------------------------------------

/// One sparse-support step of the detection prefix convolution:
///   next[min(s + shift, n - 1)] += q * p[s]   for s in [0, n)
/// i.e. a shifted axpy over the non-saturating range plus a blocked-order
/// weighted sum of the saturating tail into the last cell (each term
/// q * p[s] rounded once, then summed). Requires shift <= n and next != p.
inline void ConvolveShiftSaturate(const double* p, size_t n, size_t shift,
                                  double q, double* next) {
  if (n == 0) return;
  const size_t dense = n - shift;
  Axpy(q, p, next + shift, dense);
  if (shift > 0) {
    const double* tail = p + dense;
    next[n - 1] +=
        internal::BlockedSum(shift, [q, tail](size_t i) { return q * tail[i]; });
  }
}

/// ---- Canonical-order helper for data-dependent loops --------------------

/// For loops whose per-element terms are branchy scalar code (the
/// Monte-Carlo detection term) but whose reduction must follow the
/// canonical blocked order: feed terms in index order via Add(), read
/// Total(). Bit-identical to Sum() over the same terms.
struct BlockedAccumulator {
  double lane[kBlockLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t count = 0;

  void Add(double v) { lane[count++ & (kBlockLanes - 1)] += v; }
  double Total() const { return (lane[0] + lane[1]) + (lane[2] + lane[3]); }
};

}  // namespace auditgame::math

#endif  // AUDIT_GAME_MATH_KERNELS_H_
