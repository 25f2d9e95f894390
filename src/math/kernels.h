#ifndef AUDIT_GAME_MATH_KERNELS_H_
#define AUDIT_GAME_MATH_KERNELS_H_

#include <cstddef>
#include <utility>

namespace auditgame::math {

/// One home for the solver core's hot inner loops: dot/axpy/scaled-add,
/// blocked-order sums, the detection prefix convolution, weighted-tail
/// accumulation, and the sparse dots behind reduced-cost sweeps.
///
/// Determinism contract: reductions follow one canonical order — the
/// *blocked* order with kBlockLanes = 4 independent accumulators:
///
///   lane[l] += x[4k + l]          (tail elements continue round-robin)
///   total    = (lane[0] + lane[1]) + (lane[2] + lane[3])
///
/// The scalar loops in kernels.cc are the definition of that order; there
/// is no other implementation and no runtime dispatch. No FMA is ever used:
/// the library builds with -ffp-contract=off, so a compiler targeting an
/// FMA-capable CPU cannot fuse a mul+add and round once where the
/// definition rounds twice. Element-wise kernels (axpy, scale) round once
/// per element. See docs/DESIGN.md "Numeric kernels and solver scratch".
///
/// The blocked order is the canonical semantics of the library: results
/// differ from a naive left-to-right sum by the usual reassociation ULPs,
/// and every caller, every committed BENCH baseline and the golden solve
/// fingerprints in tests/cggs_determinism_test.cc are defined against it.

inline constexpr size_t kBlockLanes = 4;

/// ---- Reductions (canonical blocked order) ------------------------------

/// sum_i x[i].
double Sum(const double* x, size_t n);

/// sum_i x[i] * y[i]. The weighted-tail accumulation of detection
/// (prefix-probability x conditional-detection tables) and the dense dots
/// of Ftran/Btran are this kernel.
double Dot(const double* x, const double* y, size_t n);

/// sum_i |x[i] - y[i]| — the total-variation inner loop.
double AbsDiffSum(const double* x, const double* y, size_t n);

/// ---- Element-wise ------------------------------------------------------

/// y[i] += a * x[i].
void Axpy(double a, const double* x, double* y, size_t n);

/// y[i] += x[i].
void Add(const double* x, double* y, size_t n);

/// x[i] *= a. PMF truncation/renormalization is Sum + Scale.
void Scale(double a, double* x, size_t n);

/// ---- Composite solver kernels ------------------------------------------

/// One sparse-support step of the detection prefix convolution:
///   next[min(s + shift, n - 1)] += q * p[s]   for s in [0, n)
/// i.e. a shifted axpy over the non-saturating range plus a blocked-order
/// weighted sum of the saturating tail into the last cell. Requires
/// shift <= n and next != p.
void ConvolveShiftSaturate(const double* p, size_t n, size_t shift, double q,
                           double* next);

/// Sparse dot against a dense vector: sum_k terms[k].second *
/// y[terms[k].first] — the reduced-cost sweep's per-column dot, summed
/// left to right (gather-bound), kept here so the sweep has one home.
double SparseDot(const std::pair<int, double>* terms, size_t n,
                 const double* y);

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
