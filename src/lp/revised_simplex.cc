#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "math/kernels.h"
#include "util/logging.h"

namespace auditgame::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A warm basis whose LU pivot falls below this fraction of its largest
// entry is treated as singular and replaced by the cold basis. Re-pricing
// a master in place can make its basic columns nearly dependent: an
// absolute test then accepts pivots around 1e-9 against entries near 10,
// and every solve from that factorization is wrong.
constexpr double kWarmPivotTolerance = 1e-7;

// The solver works on the model columns directly plus one logical (slack)
// column per row, turning every row into an equality:
//
//   a_i'x + s_i = b_i,   s_i in [0, inf)   for <= rows
//                        s_i in (-inf, 0]  for >= rows
//                        s_i = 0           for  = rows
//
// so a basis is any nonsingular m-subset of the n_structural + m columns
// and every nonbasic column rests at a bound (or at zero when free).
//
// Memory: every engine buffer — bounds, costs, the LU factors and their
// transpose, the eta file's d-vectors, all Ftran/Btran scratch — lives in
// a Workspace of vectors that each thread keeps across solves (SolveInto),
// so a thread that solves in a loop (a shard's ISHM sweep) pays heap
// allocations only while its LPs grow. Dense inner loops (forward/backward
// substitution, elimination, reduced-cost dots) run on math/kernels and
// follow its canonical blocked summation order; Btran substitutes against
// a transposed copy of the LU factors refreshed at each factorization,
// which turns its column-strided traversal into contiguous kernel dots.
struct ColEntry {
  int row;
  double value;
};

struct Workspace {
  // Structural columns, CSR over columns (entries row-ordered).
  std::vector<int> col_starts;
  std::vector<ColEntry> col_entries;
  std::vector<int> cursor;  // CSR build scratch
  std::vector<double> lower, upper, cost, b;

  std::vector<VarStatus> status;  // per column
  std::vector<int> basic;         // basis position -> column
  std::vector<double> x;          // per column

  std::vector<double> lu;   // packed L (unit lower) / U factors of B
  std::vector<double> lut;  // transposed factors, for Btran
  std::vector<int> perm;    // row permutation of the factorization
  // The eta file since the last factorization: eta e replaced basis
  // position eta_rows[e], and its d-vector B_old^{-1} a_entering
  // (position-indexed) is eta_d[e*m, (e+1)*m).
  std::vector<int> eta_rows;
  std::vector<double> eta_d;

  // Per-iteration scratch.
  std::vector<double> work_v, work_w;  // ComputeBasicValues / Btran
  std::vector<double> cb, y, w, col;

  // Empties every buffer, keeping its capacity, so no state carries from
  // one solve to the next.
  void Clear() {
    auto clear = [](auto&... v) { (v.clear(), ...); };
    clear(col_starts, col_entries, cursor, lower, upper, cost, b, status,
          basic, x, lu, lut, perm, eta_rows, eta_d, work_v, work_w, cb, y, w,
          col);
  }
};

class Engine {
 public:
  Engine(const LpModel& model, const RevisedSimplex::Options& options,
         Workspace& workspace)
      : model_(model),
        options_(options),
        ns_(model.num_variables()),
        m_(model.num_constraints()),
        n_(ns_ + m_),
        ws_(workspace) {
    ws_.Clear();
    // Structural columns in CSR-like form, entries ordered by row within
    // each column (the build traverses rows in order).
    ws_.col_starts.assign(static_cast<size_t>(ns_) + 1, 0);
    for (int i = 0; i < m_; ++i) {
      for (int var : model.row_vars(i)) {
        ++ws_.col_starts[static_cast<size_t>(var) + 1];
      }
    }
    for (int j = 0; j < ns_; ++j) {
      ws_.col_starts[static_cast<size_t>(j) + 1] +=
          ws_.col_starts[static_cast<size_t>(j)];
    }
    ws_.col_entries.resize(ws_.col_starts[static_cast<size_t>(ns_)]);
    std::vector<int>& cursor = ws_.cursor;
    cursor.assign(ws_.col_starts.begin(), ws_.col_starts.end() - 1);
    for (int i = 0; i < m_; ++i) {
      const auto& vars = model.row_vars(i);
      const auto& coeffs = model.row_coeffs(i);
      for (size_t k = 0; k < vars.size(); ++k) {
        const int at = cursor[vars[k]]++;
        ws_.col_entries[static_cast<size_t>(at)] = {i, coeffs[k]};
      }
    }
    ws_.lower.resize(static_cast<size_t>(n_));
    ws_.upper.resize(static_cast<size_t>(n_));
    ws_.cost.assign(static_cast<size_t>(n_), 0.0);
    for (int j = 0; j < ns_; ++j) {
      ws_.lower[j] = model.lower_bound(j);
      ws_.upper[j] = model.upper_bound(j);
      ws_.cost[j] = model.cost(j);
    }
    ws_.b.resize(static_cast<size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      ws_.b[i] = model.rhs(i);
      const int col = ns_ + i;
      switch (model.sense(i)) {
        case Sense::kLessEqual:
          ws_.lower[col] = 0.0;
          ws_.upper[col] = kInf;
          break;
        case Sense::kGreaterEqual:
          ws_.lower[col] = -kInf;
          ws_.upper[col] = 0.0;
          break;
        case Sense::kEqual:
          ws_.lower[col] = 0.0;
          ws_.upper[col] = 0.0;
          break;
      }
    }
    // Size the solve scratch once; nothing below reallocates mid-solve.
    const size_t ms = static_cast<size_t>(m_);
    ws_.x.assign(static_cast<size_t>(n_), 0.0);
    ws_.work_v.reserve(ms);
    ws_.work_w.reserve(ms);
    ws_.cb.reserve(ms);
    ws_.y.reserve(ms);
    ws_.w.reserve(ms);
    ws_.col.reserve(ms);
    const size_t max_etas = static_cast<size_t>(options_.refactor_interval);
    ws_.eta_rows.reserve(max_etas);
    ws_.eta_d.reserve(max_etas * ms);
  }

  util::Status Run(const Basis* warm_start, RevisedSolution& result) {
    // Reused buffers: clear (keeping capacity) so every early-return path
    // leaves the same state a fresh RevisedSolution would have.
    result.solution.objective = 0.0;
    result.solution.primal.clear();
    result.solution.dual.clear();
    result.solution.reduced_cost.clear();
    result.solution.phase1_iterations = 0;
    result.solution.phase2_iterations = 0;
    result.solution.status = SolveStatus::kIterationLimit;
    result.basis.structural.clear();
    result.basis.logical.clear();
    result.warm_started = false;
    result.basis_accepted = false;
    bool installed = InstallBasis(warm_start);
    if (!installed) InstallColdBasis();
    if (installed && !Factorize(kWarmPivotTolerance)) {
      // A recorded basic set can be singular, or nearly so, after the
      // model changed under it; the cold all-logical basis is the identity
      // and never is.
      InstallColdBasis();
      installed = false;
    }
    if (!installed) CHECK(Factorize());
    result.basis_accepted = installed;
    ComputeBasicValues();

    LpSolution& solution = result.solution;
    int used = 0;

    const PhaseOutcome phase1 = RunPhase(/*phase1=*/true,
                                         options_.max_iterations, &used);
    solution.phase1_iterations = used;
    // "Warm started" is a statement about work actually saved: the
    // snapshot was accepted *and* was still primal-feasible, so phase 1
    // performed no pivots.
    result.warm_started = installed && used == 0;
    switch (phase1) {
      case PhaseOutcome::kDone:
        break;
      case PhaseOutcome::kInfeasible:
        solution.status = SolveStatus::kInfeasible;
        return util::OkStatus();
      case PhaseOutcome::kIterationLimit:
        solution.status = SolveStatus::kIterationLimit;
        return util::OkStatus();
      case PhaseOutcome::kUnbounded:
        return util::InternalError(
            "revised simplex: phase 1 reported an unbounded direction");
      case PhaseOutcome::kNumericalFailure:
        return util::InternalError(
            "revised simplex: singular basis during phase 1");
    }
    // x_B is recomputed only after a phase that moved: a phase that made
    // no step left the factors, the statuses and x exactly as the last
    // recompute wrote them, so another would return the same bits.
    if (used > 0) ComputeBasicValues();

    int used2 = 0;
    const PhaseOutcome phase2 =
        RunPhase(/*phase1=*/false, options_.max_iterations - used, &used2);
    solution.phase2_iterations = used2;
    switch (phase2) {
      case PhaseOutcome::kDone:
        break;
      case PhaseOutcome::kUnbounded:
        solution.status = SolveStatus::kUnbounded;
        return util::OkStatus();
      case PhaseOutcome::kIterationLimit:
        solution.status = SolveStatus::kIterationLimit;
        return util::OkStatus();
      case PhaseOutcome::kInfeasible:
        solution.status = SolveStatus::kInfeasible;
        return util::OkStatus();
      case PhaseOutcome::kNumericalFailure:
        return util::InternalError(
            "revised simplex: singular basis during phase 2");
    }
    if (used2 > 0) ComputeBasicValues();
    ExtractSolution(result);
    return util::OkStatus();
  }

 private:
  enum class PhaseOutcome {
    kDone,            // phase 1: feasible; phase 2: optimal
    kInfeasible,      // phase 1 only
    kUnbounded,
    kIterationLimit,
    kNumericalFailure,
  };

  // The d-vector of eta e (see Workspace::eta_d).
  const double* EtaD(size_t e) const {
    return ws_.eta_d.data() + e * static_cast<size_t>(m_);
  }

  double FeasTol(double bound) const {
    return options_.tolerance * (1.0 + std::fabs(bound));
  }

  // ---- Basis installation ----------------------------------------------

  void InstallColdBasis() {
    ws_.status.assign(static_cast<size_t>(n_), VarStatus::kAtLower);
    for (int j = 0; j < ns_; ++j) ws_.status[j] = DefaultNonbasicStatus(j);
    ws_.basic.resize(static_cast<size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      ws_.basic[i] = ns_ + i;
      ws_.status[ns_ + i] = VarStatus::kBasic;
    }
  }

  VarStatus DefaultNonbasicStatus(int col) const {
    if (ws_.lower[col] != -kInf) return VarStatus::kAtLower;
    if (ws_.upper[col] != kInf) return VarStatus::kAtUpper;
    return VarStatus::kNonbasicFree;
  }

  // Validates and installs a warm-start basis; returns false (leaving the
  // engine for a cold start) when the snapshot does not fit the model.
  bool InstallBasis(const Basis* warm) {
    if (warm == nullptr || warm->empty()) return false;
    if (static_cast<int>(warm->logical.size()) != m_ ||
        static_cast<int>(warm->structural.size()) > ns_) {
      return false;
    }
    ws_.status.assign(static_cast<size_t>(n_), VarStatus::kAtLower);
    ws_.basic.clear();
    for (int j = 0; j < n_; ++j) {
      VarStatus s;
      if (j < ns_) {
        s = static_cast<size_t>(j) < warm->structural.size()
                ? warm->structural[j]
                : DefaultNonbasicStatus(j);
      } else {
        s = warm->logical[j - ns_];
      }
      if (s == VarStatus::kBasic) {
        ws_.basic.push_back(j);
      } else {
        // Repair statuses pointing at bounds the column does not have.
        if (s == VarStatus::kAtLower && ws_.lower[j] == -kInf) {
          s = DefaultNonbasicStatus(j);
        } else if (s == VarStatus::kAtUpper && ws_.upper[j] == kInf) {
          s = DefaultNonbasicStatus(j);
        } else if (s == VarStatus::kNonbasicFree &&
                   (ws_.lower[j] != -kInf || ws_.upper[j] != kInf)) {
          s = DefaultNonbasicStatus(j);
        }
      }
      ws_.status[j] = s;
    }
    return static_cast<int>(ws_.basic.size()) == m_;
  }

  // ---- Factorization: dense LU with partial pivoting + eta file --------

  double& Lu(int i, int j) { return ws_.lu[static_cast<size_t>(i) * m_ + j]; }
  double Lu(int i, int j) const {
    return ws_.lu[static_cast<size_t>(i) * m_ + j];
  }

  // Factorizes the basis; false when it is singular: some pivot falls
  // below pivot_tolerance, or below `relative_tolerance` times the largest
  // basis entry.
  bool Factorize(double relative_tolerance = 0.0) {
    ws_.eta_rows.clear();
    ws_.eta_d.clear();
    ws_.lu.assign(static_cast<size_t>(m_) * m_, 0.0);
    for (int k = 0; k < m_; ++k) {
      const int col = ws_.basic[k];
      if (col < ns_) {
        for (int e = ws_.col_starts[col]; e < ws_.col_starts[col + 1]; ++e) {
          Lu(ws_.col_entries[e].row, k) += ws_.col_entries[e].value;
        }
      } else {
        Lu(col - ns_, k) += 1.0;
      }
    }
    double largest = 0.0;
    for (const double a : ws_.lu) largest = std::max(largest, std::fabs(a));
    const double singular_below =
        std::max(options_.pivot_tolerance, relative_tolerance * largest);
    ws_.perm.resize(static_cast<size_t>(m_));
    for (int i = 0; i < m_; ++i) ws_.perm[i] = i;
    for (int k = 0; k < m_; ++k) {
      int p = k;
      double best = std::fabs(Lu(k, k));
      for (int i = k + 1; i < m_; ++i) {
        const double a = std::fabs(Lu(i, k));
        if (a > best) {
          best = a;
          p = i;
        }
      }
      if (best < singular_below) return false;  // singular
      if (p != k) {
        for (int j = 0; j < m_; ++j) std::swap(Lu(k, j), Lu(p, j));
        std::swap(ws_.perm[k], ws_.perm[p]);
      }
      const double inv = 1.0 / Lu(k, k);
      for (int i = k + 1; i < m_; ++i) {
        const double factor = Lu(i, k) * inv;
        if (factor == 0.0) continue;
        Lu(i, k) = factor;
        // Row update: one contiguous axpy over the trailing submatrix row.
        math::Axpy(-factor, LuRow(k) + k + 1, LuRow(i) + k + 1,
                   static_cast<size_t>(m_ - k - 1));
      }
    }
    // Transposed copy: Btran substitutes along LU *columns*, which stride
    // by m in lu; lut(i, j) = Lu(j, i) makes those traversals contiguous
    // kernel dots. Refreshed with every factorization.
    ws_.lut.resize(static_cast<size_t>(m_) * m_);
    for (int i = 0; i < m_; ++i) {
      for (int j = 0; j < m_; ++j) {
        ws_.lut[static_cast<size_t>(i) * m_ + j] = Lu(j, i);
      }
    }
    return true;
  }

  double Lut(int i, int j) const {
    return ws_.lut[static_cast<size_t>(i) * m_ + j];
  }

  // Row k of the factors and of their transpose. Pointer arithmetic, not
  // operator[]: the trailing part of the last row starts one past the end.
  double* LuRow(int k) { return ws_.lu.data() + static_cast<size_t>(k) * m_; }
  const double* LuRow(int k) const {
    return ws_.lu.data() + static_cast<size_t>(k) * m_;
  }
  const double* LutRow(int k) const {
    return ws_.lut.data() + static_cast<size_t>(k) * m_;
  }

  // Solves B w = v into `w`. Input indexed by row, output by basis
  // position. `v` and `w` must be distinct buffers.
  void Ftran(const std::vector<double>& v, std::vector<double>& w) const {
    w.resize(static_cast<size_t>(m_));
    for (int k = 0; k < m_; ++k) w[k] = v[ws_.perm[k]];
    for (int k = 1; k < m_; ++k) {
      // Forward substitution: L rows are contiguous prefixes of lu rows.
      w[k] -= math::Dot(LuRow(k), w.data(), static_cast<size_t>(k));
    }
    for (int k = m_ - 1; k >= 0; --k) {
      const double sum =
          w[k] - math::Dot(LuRow(k) + k + 1, w.data() + k + 1,
                           static_cast<size_t>(m_ - k - 1));
      w[k] = sum / Lu(k, k);
    }
    for (size_t e = 0; e < ws_.eta_rows.size(); ++e) {
      const int r = ws_.eta_rows[e];
      const double* d = EtaD(e);
      const double t = w[r] / d[r];
      math::Axpy(-t, d, w.data(), static_cast<size_t>(m_));
      w[r] = t;
    }
  }

  // Solves B'y = c into `y`, consuming `c` as scratch. Inputs indexed by
  // basis position, output by row.
  void Btran(std::vector<double>& c, std::vector<double>& y) {
    for (size_t e = ws_.eta_rows.size(); e-- > 0;) {
      const int r = ws_.eta_rows[e];
      const double* d = EtaD(e);
      const double dot = math::Dot(c.data(), d, static_cast<size_t>(m_));
      c[r] = (c[r] - (dot - c[r] * d[r])) / d[r];
    }
    ws_.work_v.resize(static_cast<size_t>(m_));
    std::vector<double>& a = ws_.work_v;
    for (int k = 0; k < m_; ++k) {
      // U' is lower triangular; its rows are contiguous in the transposed
      // factors.
      const double sum =
          c[k] - math::Dot(LutRow(k), a.data(), static_cast<size_t>(k));
      a[k] = sum / Lut(k, k);
    }
    for (int k = m_ - 1; k >= 0; --k) {
      a[k] -= math::Dot(LutRow(k) + k + 1, a.data() + k + 1,
                        static_cast<size_t>(m_ - k - 1));
    }
    y.resize(static_cast<size_t>(m_));
    for (int k = 0; k < m_; ++k) y[ws_.perm[k]] = a[k];
  }

  // Column `col` of the constraint matrix, densified by row into `a`.
  void DenseColumnInto(int col, std::vector<double>& a) const {
    a.assign(static_cast<size_t>(m_), 0.0);
    if (col < ns_) {
      for (int e = ws_.col_starts[col]; e < ws_.col_starts[col + 1]; ++e) {
        a[ws_.col_entries[e].row] += ws_.col_entries[e].value;
      }
    } else {
      a[col - ns_] = 1.0;
    }
  }

  double DotColumn(const std::vector<double>& y, int col) const {
    if (col >= ns_) return y[col - ns_];
    double dot = 0.0;
    for (int e = ws_.col_starts[col]; e < ws_.col_starts[col + 1]; ++e) {
      dot += y[ws_.col_entries[e].row] * ws_.col_entries[e].value;
    }
    return dot;
  }

  double NonbasicValue(int col) const {
    switch (ws_.status[col]) {
      case VarStatus::kAtLower:
        return ws_.lower[col];
      case VarStatus::kAtUpper:
        return ws_.upper[col];
      default:
        return 0.0;
    }
  }

  // Recomputes x_B = B^{-1}(b - N x_N) from the factorization, clearing
  // the drift of the incremental updates.
  void ComputeBasicValues() {
    ws_.x.assign(static_cast<size_t>(n_), 0.0);
    ws_.work_v.assign(ws_.b.begin(), ws_.b.end());
    for (int j = 0; j < n_; ++j) {
      if (ws_.status[j] == VarStatus::kBasic) continue;
      const double xj = NonbasicValue(j);
      ws_.x[j] = xj;
      if (xj == 0.0) continue;
      if (j < ns_) {
        for (int e = ws_.col_starts[j]; e < ws_.col_starts[j + 1]; ++e) {
          ws_.work_v[ws_.col_entries[e].row] -= ws_.col_entries[e].value * xj;
        }
      } else {
        ws_.work_v[j - ns_] -= xj;
      }
    }
    Ftran(ws_.work_v, ws_.work_w);
    for (int k = 0; k < m_; ++k) ws_.x[ws_.basic[k]] = ws_.work_w[k];
  }

  // Sum of bound violations over the basic variables (the phase-1
  // objective) and, via `cb`, its gradient on the basis.
  double Infeasibility(std::vector<double>* cb) const {
    double total = 0.0;
    if (cb != nullptr) cb->assign(static_cast<size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      const int col = ws_.basic[k];
      const double x = ws_.x[col];
      if (x < ws_.lower[col] - FeasTol(ws_.lower[col])) {
        total += ws_.lower[col] - x;
        if (cb != nullptr) (*cb)[k] = -1.0;
      } else if (x > ws_.upper[col] + FeasTol(ws_.upper[col])) {
        total += x - ws_.upper[col];
        if (cb != nullptr) (*cb)[k] = 1.0;
      }
    }
    return total;
  }

  // ---- The simplex loop -------------------------------------------------

  PhaseOutcome RunPhase(bool phase1, int iteration_budget, int* used) {
    *used = 0;
    int stall = 0;
    bool bland = false;
    double last_objective = kInf;
    for (;;) {
      double objective;
      if (phase1) {
        objective = Infeasibility(&ws_.cb);
        if (objective <= options_.tolerance * 10) return PhaseOutcome::kDone;
      } else {
        ws_.cb.resize(static_cast<size_t>(m_));
        for (int k = 0; k < m_; ++k) ws_.cb[k] = ws_.cost[ws_.basic[k]];
        objective =
            math::Dot(ws_.cost.data(), ws_.x.data(), static_cast<size_t>(n_));
      }
      if (objective < last_objective - 1e-12) {
        last_objective = objective;
        stall = 0;
        bland = false;
      } else if (!bland && ++stall > 2 * (m_ + 50)) {
        bland = true;  // Bland's rule escapes degenerate cycling
      }

      Btran(ws_.cb, ws_.y);
      int entering = -1;
      double entering_dir = 0.0;
      double best_violation = options_.tolerance;
      for (int j = 0; j < n_; ++j) {
        if (ws_.status[j] == VarStatus::kBasic) continue;
        if (ws_.upper[j] - ws_.lower[j] <= 0.0) continue;  // fixed, cannot move
        const double phase_cost = phase1 ? 0.0 : ws_.cost[j];
        const double d = phase_cost - DotColumn(ws_.y, j);
        double violation = 0.0;
        double dir = 0.0;
        if (ws_.status[j] == VarStatus::kAtLower && d < -options_.tolerance) {
          violation = -d;
          dir = 1.0;
        } else if (ws_.status[j] == VarStatus::kAtUpper &&
                   d > options_.tolerance) {
          violation = d;
          dir = -1.0;
        } else if (ws_.status[j] == VarStatus::kNonbasicFree &&
                   std::fabs(d) > options_.tolerance) {
          violation = std::fabs(d);
          dir = d < 0 ? 1.0 : -1.0;
        } else {
          continue;
        }
        if (bland) {
          entering = j;
          entering_dir = dir;
          break;
        }
        if (violation > best_violation) {
          best_violation = violation;
          entering = j;
          entering_dir = dir;
        }
      }
      if (entering < 0) {
        // No improving column: this basis is as good as it gets for the
        // phase. For phase 1 that means infeasible iff violations remain.
        if (phase1 && Infeasibility(nullptr) > options_.tolerance * 10) {
          return PhaseOutcome::kInfeasible;
        }
        return PhaseOutcome::kDone;
      }
      // The already-optimal case is handled above, so hitting the budget
      // here means real work remains: an already-optimal basis with a zero
      // remaining budget is reported optimal.
      if (*used >= iteration_budget) return PhaseOutcome::kIterationLimit;

      DenseColumnInto(entering, ws_.col);
      Ftran(ws_.col, ws_.w);
      const PhaseOutcome step =
          Step(phase1, entering, entering_dir, ws_.w, bland);
      if (step != PhaseOutcome::kDone) return step;
      ++*used;
    }
  }

  // One ratio test + update (bound flip or basis change). Returns kDone on
  // a completed step, or a terminal outcome.
  PhaseOutcome Step(bool phase1, int entering, double dir,
                    const std::vector<double>& w, bool bland) {
    constexpr double kTieTol = 1e-9;
    const double flip_t = ws_.upper[entering] - ws_.lower[entering];  // inf ok

    // Pass 1: the tightest blocking ratio.
    double best_t = kInf;
    for (int k = 0; k < m_; ++k) {
      const double t = BlockingRatio(phase1, k, -dir * w[k], nullptr);
      if (t < best_t) best_t = t;
    }

    if (flip_t <= best_t) {
      if (flip_t == kInf) return PhaseOutcome::kUnbounded;
      // Bound flip: the entering variable traverses to its opposite bound
      // without any basis change.
      for (int k = 0; k < m_; ++k) ws_.x[ws_.basic[k]] += -dir * w[k] * flip_t;
      ws_.status[entering] = ws_.status[entering] == VarStatus::kAtLower
                              ? VarStatus::kAtUpper
                              : VarStatus::kAtLower;
      ws_.x[entering] = NonbasicValue(entering);
      return PhaseOutcome::kDone;
    }

    // Pass 2: deterministic leaving choice among near-ties — the largest
    // pivot magnitude for stability, then the smallest basic column index;
    // under Bland's rule, the smallest index alone.
    int leaving = -1;
    bool to_upper = false;
    double best_pivot = -1.0;
    for (int k = 0; k < m_; ++k) {
      bool hits_upper = false;
      const double t = BlockingRatio(phase1, k, -dir * w[k], &hits_upper);
      if (t > best_t + kTieTol) continue;
      const double pivot = std::fabs(w[k]);
      const bool better =
          leaving < 0 ||
          (bland ? ws_.basic[k] < ws_.basic[leaving]
                 : (pivot > best_pivot + kTieTol ||
                    (pivot > best_pivot - kTieTol &&
                     ws_.basic[k] < ws_.basic[leaving])));
      if (better) {
        leaving = k;
        to_upper = hits_upper;
        best_pivot = pivot;
      }
    }
    CHECK(leaving >= 0);

    // Update primal values along the direction, then swap the basis.
    const double t = std::max(0.0, best_t);
    for (int k = 0; k < m_; ++k) ws_.x[ws_.basic[k]] += -dir * w[k] * t;
    ws_.x[entering] = NonbasicValue(entering) + dir * t;
    const int leaving_col = ws_.basic[leaving];
    ws_.status[leaving_col] =
        to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    ws_.x[leaving_col] = NonbasicValue(leaving_col);
    ws_.status[entering] = VarStatus::kBasic;
    ws_.basic[leaving] = entering;
    // eta_d was reserved for a full eta file, so this never reallocates.
    ws_.eta_rows.push_back(leaving);
    ws_.eta_d.insert(ws_.eta_d.end(), w.begin(), w.begin() + m_);
    if (static_cast<int>(ws_.eta_rows.size()) >= options_.refactor_interval) {
      if (!Factorize()) return PhaseOutcome::kNumericalFailure;
      ComputeBasicValues();
    }
    return PhaseOutcome::kDone;
  }

  // Ratio at which basis position k blocks a move with per-unit step
  // `delta`, or +inf. In phase 1 a basic variable outside its bounds
  // blocks only at the bound it violates (reaching it restores
  // feasibility); moving it further out never blocks — the composite
  // objective accounts for the growing violation.
  double BlockingRatio(bool phase1, int k, double delta,
                       bool* hits_upper) const {
    if (std::fabs(delta) <= options_.pivot_tolerance) return kInf;
    const int col = ws_.basic[k];
    const double x = ws_.x[col];
    const double l = ws_.lower[col];
    const double u = ws_.upper[col];
    double bound;
    bool upper;
    if (phase1 && x < l - FeasTol(l)) {
      if (delta <= 0) return kInf;
      bound = l;
      upper = false;
    } else if (phase1 && x > u + FeasTol(u)) {
      if (delta >= 0) return kInf;
      bound = u;
      upper = true;
    } else if (delta > 0) {
      if (u == kInf) return kInf;
      bound = u;
      upper = true;
    } else {
      if (l == -kInf) return kInf;
      bound = l;
      upper = false;
    }
    if (hits_upper != nullptr) *hits_upper = upper;
    return std::max(0.0, (bound - x) / delta);
  }

  // ---- Solution extraction ---------------------------------------------

  void ExtractSolution(RevisedSolution& result) {
    LpSolution& solution = result.solution;
    solution.status = SolveStatus::kOptimal;
    solution.primal.assign(static_cast<size_t>(ns_), 0.0);
    for (int j = 0; j < ns_; ++j) solution.primal[j] = ws_.x[j];
    solution.objective =
        model_.objective_constant() +
        math::Dot(ws_.cost.data(), ws_.x.data(), static_cast<size_t>(ns_));

    // Phase 2 ended on a pricing pass that found no entering column: its y
    // is B'^{-1} c_B for this basis and eta file, so no second Btran.
    solution.dual.assign(ws_.y.begin(), ws_.y.end());
    solution.reduced_cost.assign(static_cast<size_t>(ns_), 0.0);
    for (int j = 0; j < ns_; ++j) {
      solution.reduced_cost[j] = ws_.cost[j] - DotColumn(ws_.y, j);
    }

    result.basis.structural.assign(ws_.status.begin(),
                                   ws_.status.begin() + ns_);
    result.basis.logical.assign(ws_.status.begin() + ns_, ws_.status.end());
  }

  const LpModel& model_;
  const RevisedSimplex::Options& options_;
  const int ns_;  // structural columns
  const int m_;   // rows
  const int n_;   // structural + logical columns

  Workspace& ws_;
};

// No constraints: every variable sits at its cost-minimizing bound. A
// variable resting at a bound keeps its cost as its reduced cost (there are
// no duals to subtract).
util::Status SolveUnconstrained(const LpModel& model,
                                RevisedSolution& result) {
  LpSolution& solution = result.solution;
  solution.objective = 0.0;
  solution.phase1_iterations = 0;
  solution.phase2_iterations = 0;
  solution.dual.clear();
  solution.primal.assign(model.num_variables(), 0.0);
  solution.reduced_cost.assign(model.num_variables(), 0.0);
  result.warm_started = false;
  result.basis_accepted = false;
  result.basis.logical.clear();
  result.basis.structural.assign(model.num_variables(), VarStatus::kAtLower);
  double objective = model.objective_constant();
  for (int j = 0; j < model.num_variables(); ++j) {
    const double c = model.cost(j);
    double x;
    VarStatus status = VarStatus::kAtLower;
    if (c > 0) {
      x = model.lower_bound(j);
    } else if (c < 0) {
      x = model.upper_bound(j);
      status = VarStatus::kAtUpper;
    } else {
      // Zero cost: the feasible value nearest zero, always finite (max
      // with a -inf lower bound yields 0, min with a +inf upper keeps it).
      x = std::min(std::max(0.0, model.lower_bound(j)),
                   model.upper_bound(j));
      if (x == model.upper_bound(j)) {
        status = VarStatus::kAtUpper;
      } else if (x != model.lower_bound(j)) {
        status = VarStatus::kNonbasicFree;
      }
    }
    if (!std::isfinite(x)) {
      solution.status = SolveStatus::kUnbounded;
      result.basis.structural.clear();
      result.basis.logical.clear();
      return util::OkStatus();
    }
    solution.primal[j] = x;
    solution.reduced_cost[j] = c;
    result.basis.structural[j] = status;
    objective += c * x;
  }
  solution.status = SolveStatus::kOptimal;
  solution.objective = objective;
  return util::OkStatus();
}

}  // namespace

const char* SolveStatusToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "OPTIMAL";
    case SolveStatus::kInfeasible:
      return "INFEASIBLE";
    case SolveStatus::kUnbounded:
      return "UNBOUNDED";
    case SolveStatus::kIterationLimit:
      return "ITERATION_LIMIT";
  }
  return "UNKNOWN";
}

util::StatusOr<RevisedSolution> RevisedSimplex::Solve(
    const LpModel& model, const RevisedSimplex::Options& options,
    const Basis* warm_start) {
  RevisedSolution result;
  RETURN_IF_ERROR(SolveInto(model, options, warm_start, result));
  return result;
}

util::Status RevisedSimplex::SolveInto(const LpModel& model,
                                       const RevisedSimplex::Options& options,
                                       const Basis* warm_start,
                                       RevisedSolution& out) {
  if (options.refactor_interval < 1) {
    return util::InvalidArgumentError(
        "RevisedSimplex: refactor_interval must be at least 1, got " +
        std::to_string(options.refactor_interval));
  }
  RETURN_IF_ERROR(model.Validate());
  if (model.num_constraints() == 0) return SolveUnconstrained(model, out);
  // One workspace per thread: shard threads and engine workers each solve
  // in a loop, and no solve re-enters another on the same thread.
  thread_local Workspace workspace;
  Engine engine(model, options, workspace);
  return engine.Run(warm_start, out);
}

}  // namespace auditgame::lp
