#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "math/kernels.h"
#include "util/arena.h"
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
// transpose, the eta file's d-vectors, all Ftran/Btran scratch — is drawn
// from one arena (the caller's workspace arena when provided, a local
// arena otherwise) under a single RAII scope, so a caller that solves in a
// loop (the incremental master LP) pays heap allocations only on its first
// solve. Dense inner loops (forward/backward substitution, elimination,
// reduced-cost dots) run on math/kernels and follow its canonical blocked
// summation order; Btran substitutes against a
// transposed copy of the LU factors refreshed at each factorization, which
// turns its column-strided traversal into contiguous kernel dots.
class Engine {
 public:
  Engine(const LpModel& model, const RevisedSimplex::Options& options)
      : model_(model),
        options_(options),
        ns_(model.num_variables()),
        m_(model.num_constraints()),
        n_(ns_ + m_),
        owned_arena_(options.workspace == nullptr
                         ? std::make_unique<util::Arena>()
                         : nullptr),
        arena_(options.workspace != nullptr ? *options.workspace
                                            : *owned_arena_),
        scope_(arena_),
        col_starts_(arena_),
        col_entries_(arena_),
        lower_(arena_),
        upper_(arena_),
        cost_(arena_),
        b_(arena_),
        status_(arena_),
        basic_(arena_),
        x_(arena_),
        lu_(arena_),
        lut_(arena_),
        perm_(arena_),
        etas_(arena_),
        work_v_(arena_),
        work_w_(arena_),
        cb_(arena_),
        y_(arena_),
        w_(arena_),
        col_(arena_) {
    // Structural columns in CSR-like form, entries ordered by row within
    // each column (the build traverses rows in order).
    col_starts_.assign(static_cast<size_t>(ns_) + 1, 0);
    for (int i = 0; i < m_; ++i) {
      for (int var : model.row_vars(i)) {
        ++col_starts_[static_cast<size_t>(var) + 1];
      }
    }
    for (int j = 0; j < ns_; ++j) {
      col_starts_[static_cast<size_t>(j) + 1] +=
          col_starts_[static_cast<size_t>(j)];
    }
    col_entries_.resize(col_starts_[static_cast<size_t>(ns_)]);
    {
      util::ArenaScope cursor_scope(arena_);
      int* cursor = arena_.AllocateArray<int>(static_cast<size_t>(ns_));
      for (int j = 0; j < ns_; ++j) cursor[j] = col_starts_[j];
      for (int i = 0; i < m_; ++i) {
        const auto& vars = model.row_vars(i);
        const auto& coeffs = model.row_coeffs(i);
        for (size_t k = 0; k < vars.size(); ++k) {
          col_entries_[static_cast<size_t>(cursor[vars[k]]++)] = {i, coeffs[k]};
        }
      }
    }
    lower_.resize(static_cast<size_t>(n_));
    upper_.resize(static_cast<size_t>(n_));
    cost_.assign(static_cast<size_t>(n_), 0.0);
    for (int j = 0; j < ns_; ++j) {
      lower_[j] = model.lower_bound(j);
      upper_[j] = model.upper_bound(j);
      cost_[j] = model.cost(j);
    }
    b_.resize(static_cast<size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      b_[i] = model.rhs(i);
      const int col = ns_ + i;
      switch (model.sense(i)) {
        case Sense::kLessEqual:
          lower_[col] = 0.0;
          upper_[col] = kInf;
          break;
        case Sense::kGreaterEqual:
          lower_[col] = -kInf;
          upper_[col] = 0.0;
          break;
        case Sense::kEqual:
          lower_[col] = 0.0;
          upper_[col] = 0.0;
          break;
      }
    }
    // Size the solve scratch once; nothing below reallocates mid-solve.
    const size_t ms = static_cast<size_t>(m_);
    x_.assign(static_cast<size_t>(n_), 0.0);
    work_v_.reserve(ms);
    work_w_.reserve(ms);
    cb_.reserve(ms);
    y_.reserve(ms);
    w_.reserve(ms);
    col_.reserve(ms);
    etas_.reserve(static_cast<size_t>(std::max(1, options_.refactor_interval)));
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
    ComputeBasicValues();

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
    ComputeBasicValues();
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

  struct Eta {
    int r;      // basis position replaced
    double* d;  // B_old^{-1} a_entering (position-indexed), arena-owned
  };

  struct ColEntry {
    int row;
    double value;
  };

  double FeasTol(double bound) const {
    return options_.tolerance * (1.0 + std::fabs(bound));
  }

  // ---- Basis installation ----------------------------------------------

  void InstallColdBasis() {
    status_.assign(static_cast<size_t>(n_), VarStatus::kAtLower);
    for (int j = 0; j < ns_; ++j) status_[j] = DefaultNonbasicStatus(j);
    basic_.resize(static_cast<size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      basic_[i] = ns_ + i;
      status_[ns_ + i] = VarStatus::kBasic;
    }
  }

  VarStatus DefaultNonbasicStatus(int col) const {
    if (lower_[col] != -kInf) return VarStatus::kAtLower;
    if (upper_[col] != kInf) return VarStatus::kAtUpper;
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
    status_.assign(static_cast<size_t>(n_), VarStatus::kAtLower);
    basic_.clear();
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
        basic_.push_back(j);
      } else {
        // Repair statuses pointing at bounds the column does not have.
        if (s == VarStatus::kAtLower && lower_[j] == -kInf) {
          s = DefaultNonbasicStatus(j);
        } else if (s == VarStatus::kAtUpper && upper_[j] == kInf) {
          s = DefaultNonbasicStatus(j);
        } else if (s == VarStatus::kNonbasicFree &&
                   (lower_[j] != -kInf || upper_[j] != kInf)) {
          s = DefaultNonbasicStatus(j);
        }
      }
      status_[j] = s;
    }
    return static_cast<int>(basic_.size()) == m_;
  }

  // ---- Factorization: dense LU with partial pivoting + eta file --------

  double& Lu(int i, int j) { return lu_[static_cast<size_t>(i) * m_ + j]; }
  double Lu(int i, int j) const {
    return lu_[static_cast<size_t>(i) * m_ + j];
  }

  // Factorizes the basis; false when it is singular: some pivot falls
  // below pivot_tolerance, or below `relative_tolerance` times the largest
  // basis entry.
  bool Factorize(double relative_tolerance = 0.0) {
    etas_.clear();
    lu_.assign(static_cast<size_t>(m_) * m_, 0.0);
    for (int k = 0; k < m_; ++k) {
      const int col = basic_[k];
      if (col < ns_) {
        for (int e = col_starts_[col]; e < col_starts_[col + 1]; ++e) {
          Lu(col_entries_[e].row, k) += col_entries_[e].value;
        }
      } else {
        Lu(col - ns_, k) += 1.0;
      }
    }
    double largest = 0.0;
    for (const double a : lu_) largest = std::max(largest, std::fabs(a));
    const double singular_below =
        std::max(options_.pivot_tolerance, relative_tolerance * largest);
    perm_.resize(static_cast<size_t>(m_));
    for (int i = 0; i < m_; ++i) perm_[i] = i;
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
        std::swap(perm_[k], perm_[p]);
      }
      const double inv = 1.0 / Lu(k, k);
      for (int i = k + 1; i < m_; ++i) {
        const double factor = Lu(i, k) * inv;
        if (factor == 0.0) continue;
        Lu(i, k) = factor;
        // Row update: one contiguous axpy over the trailing submatrix row.
        math::Axpy(-factor, &lu_[static_cast<size_t>(k) * m_ + k + 1],
                   &lu_[static_cast<size_t>(i) * m_ + k + 1],
                   static_cast<size_t>(m_ - k - 1));
      }
    }
    // Transposed copy: Btran substitutes along LU *columns*, which stride
    // by m in lu_; lut_(i, j) = Lu(j, i) makes those traversals contiguous
    // kernel dots. Refreshed with every factorization.
    lut_.resize(static_cast<size_t>(m_) * m_);
    for (int i = 0; i < m_; ++i) {
      for (int j = 0; j < m_; ++j) {
        lut_[static_cast<size_t>(i) * m_ + j] = Lu(j, i);
      }
    }
    return true;
  }

  double Lut(int i, int j) const {
    return lut_[static_cast<size_t>(i) * m_ + j];
  }

  // Solves B w = v into `w`. Input indexed by row, output by basis
  // position. `v` and `w` must be distinct buffers.
  void Ftran(const util::ArenaVector<double>& v,
             util::ArenaVector<double>& w) const {
    w.resize(static_cast<size_t>(m_));
    for (int k = 0; k < m_; ++k) w[k] = v[perm_[k]];
    for (int k = 1; k < m_; ++k) {
      // Forward substitution: L rows are contiguous prefixes of lu_ rows.
      w[k] -= math::Dot(&lu_[static_cast<size_t>(k) * m_], w.data(),
                        static_cast<size_t>(k));
    }
    for (int k = m_ - 1; k >= 0; --k) {
      const double sum =
          w[k] - math::Dot(&lu_[static_cast<size_t>(k) * m_ + k + 1],
                           w.data() + k + 1, static_cast<size_t>(m_ - k - 1));
      w[k] = sum / Lu(k, k);
    }
    for (size_t e = 0; e < etas_.size(); ++e) {
      const Eta& eta = etas_[e];
      const double t = w[eta.r] / eta.d[eta.r];
      math::Axpy(-t, eta.d, w.data(), static_cast<size_t>(m_));
      w[eta.r] = t;
    }
  }

  // Solves B'y = c into `y`, consuming `c` as scratch. Inputs indexed by
  // basis position, output by row.
  void Btran(util::ArenaVector<double>& c, util::ArenaVector<double>& y) {
    for (size_t e = etas_.size(); e-- > 0;) {
      const Eta& eta = etas_[e];
      const double dot =
          math::Dot(c.data(), eta.d, static_cast<size_t>(m_));
      c[eta.r] = (c[eta.r] - (dot - c[eta.r] * eta.d[eta.r])) / eta.d[eta.r];
    }
    work_v_.resize(static_cast<size_t>(m_));
    util::ArenaVector<double>& a = work_v_;
    for (int k = 0; k < m_; ++k) {
      // U' is lower triangular; its rows are contiguous in the transposed
      // factors.
      const double sum =
          c[k] - math::Dot(&lut_[static_cast<size_t>(k) * m_], a.data(),
                           static_cast<size_t>(k));
      a[k] = sum / Lut(k, k);
    }
    for (int k = m_ - 1; k >= 0; --k) {
      a[k] -= math::Dot(&lut_[static_cast<size_t>(k) * m_ + k + 1],
                        a.data() + k + 1, static_cast<size_t>(m_ - k - 1));
    }
    y.resize(static_cast<size_t>(m_));
    for (int k = 0; k < m_; ++k) y[perm_[k]] = a[k];
  }

  // Column `col` of the constraint matrix, densified by row into `a`.
  void DenseColumnInto(int col, util::ArenaVector<double>& a) const {
    a.assign(static_cast<size_t>(m_), 0.0);
    if (col < ns_) {
      for (int e = col_starts_[col]; e < col_starts_[col + 1]; ++e) {
        a[col_entries_[e].row] += col_entries_[e].value;
      }
    } else {
      a[col - ns_] = 1.0;
    }
  }

  double DotColumn(const util::ArenaVector<double>& y, int col) const {
    if (col >= ns_) return y[col - ns_];
    double dot = 0.0;
    for (int e = col_starts_[col]; e < col_starts_[col + 1]; ++e) {
      dot += y[col_entries_[e].row] * col_entries_[e].value;
    }
    return dot;
  }

  double NonbasicValue(int col) const {
    switch (status_[col]) {
      case VarStatus::kAtLower:
        return lower_[col];
      case VarStatus::kAtUpper:
        return upper_[col];
      default:
        return 0.0;
    }
  }

  // Recomputes x_B = B^{-1}(b - N x_N) from the factorization, clearing
  // the drift of the incremental updates.
  void ComputeBasicValues() {
    x_.assign(static_cast<size_t>(n_), 0.0);
    work_v_.assign(b_.begin(), b_.end());
    for (int j = 0; j < n_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double xj = NonbasicValue(j);
      x_[j] = xj;
      if (xj == 0.0) continue;
      if (j < ns_) {
        for (int e = col_starts_[j]; e < col_starts_[j + 1]; ++e) {
          work_v_[col_entries_[e].row] -= col_entries_[e].value * xj;
        }
      } else {
        work_v_[j - ns_] -= xj;
      }
    }
    Ftran(work_v_, work_w_);
    for (int k = 0; k < m_; ++k) x_[basic_[k]] = work_w_[k];
  }

  // Sum of bound violations over the basic variables (the phase-1
  // objective) and, via `cb`, its gradient on the basis.
  double Infeasibility(util::ArenaVector<double>* cb) const {
    double total = 0.0;
    if (cb != nullptr) cb->assign(static_cast<size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      const int col = basic_[k];
      const double x = x_[col];
      if (x < lower_[col] - FeasTol(lower_[col])) {
        total += lower_[col] - x;
        if (cb != nullptr) (*cb)[k] = -1.0;
      } else if (x > upper_[col] + FeasTol(upper_[col])) {
        total += x - upper_[col];
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
        objective = Infeasibility(&cb_);
        if (objective <= options_.tolerance * 10) return PhaseOutcome::kDone;
      } else {
        cb_.resize(static_cast<size_t>(m_));
        for (int k = 0; k < m_; ++k) cb_[k] = cost_[basic_[k]];
        objective =
            math::Dot(cost_.data(), x_.data(), static_cast<size_t>(n_));
      }
      if (objective < last_objective - 1e-12) {
        last_objective = objective;
        stall = 0;
        bland = false;
      } else if (!bland && ++stall > 2 * (m_ + 50)) {
        bland = true;  // Bland's rule escapes degenerate cycling
      }

      Btran(cb_, y_);
      int entering = -1;
      double entering_dir = 0.0;
      double best_violation = options_.tolerance;
      for (int j = 0; j < n_; ++j) {
        if (status_[j] == VarStatus::kBasic) continue;
        if (upper_[j] - lower_[j] <= 0.0) continue;  // fixed, cannot move
        const double phase_cost = phase1 ? 0.0 : cost_[j];
        const double d = phase_cost - DotColumn(y_, j);
        double violation = 0.0;
        double dir = 0.0;
        if (status_[j] == VarStatus::kAtLower && d < -options_.tolerance) {
          violation = -d;
          dir = 1.0;
        } else if (status_[j] == VarStatus::kAtUpper &&
                   d > options_.tolerance) {
          violation = d;
          dir = -1.0;
        } else if (status_[j] == VarStatus::kNonbasicFree &&
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

      DenseColumnInto(entering, col_);
      Ftran(col_, w_);
      const PhaseOutcome step =
          Step(phase1, entering, entering_dir, w_, bland);
      if (step != PhaseOutcome::kDone) return step;
      ++*used;
    }
  }

  // One ratio test + update (bound flip or basis change). Returns kDone on
  // a completed step, or a terminal outcome.
  PhaseOutcome Step(bool phase1, int entering, double dir,
                    const util::ArenaVector<double>& w, bool bland) {
    constexpr double kTieTol = 1e-9;
    const double flip_t = upper_[entering] - lower_[entering];  // inf ok

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
      for (int k = 0; k < m_; ++k) x_[basic_[k]] += -dir * w[k] * flip_t;
      status_[entering] = status_[entering] == VarStatus::kAtLower
                              ? VarStatus::kAtUpper
                              : VarStatus::kAtLower;
      x_[entering] = NonbasicValue(entering);
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
          (bland ? basic_[k] < basic_[leaving]
                 : (pivot > best_pivot + kTieTol ||
                    (pivot > best_pivot - kTieTol &&
                     basic_[k] < basic_[leaving])));
      if (better) {
        leaving = k;
        to_upper = hits_upper;
        best_pivot = pivot;
      }
    }
    CHECK(leaving >= 0);

    // Update primal values along the direction, then swap the basis.
    const double t = std::max(0.0, best_t);
    for (int k = 0; k < m_; ++k) x_[basic_[k]] += -dir * w[k] * t;
    x_[entering] = NonbasicValue(entering) + dir * t;
    const int leaving_col = basic_[leaving];
    status_[leaving_col] = to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    x_[leaving_col] = NonbasicValue(leaving_col);
    status_[entering] = VarStatus::kBasic;
    basic_[leaving] = entering;
    // The eta d-vector is a bump allocation, not a heap vector: the whole
    // eta file is reclaimed when the engine's arena scope unwinds (or
    // logically discarded at the next refactorization).
    double* d = arena_.AllocateArray<double>(static_cast<size_t>(m_));
    std::memcpy(d, w.data(), static_cast<size_t>(m_) * sizeof(double));
    etas_.push_back(Eta{leaving, d});
    if (static_cast<int>(etas_.size()) >=
        std::max(1, options_.refactor_interval)) {
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
    const int col = basic_[k];
    const double x = x_[col];
    const double l = lower_[col];
    const double u = upper_[col];
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
    for (int j = 0; j < ns_; ++j) solution.primal[j] = x_[j];
    solution.objective =
        model_.objective_constant() +
        math::Dot(cost_.data(), x_.data(), static_cast<size_t>(ns_));

    cb_.resize(static_cast<size_t>(m_));
    for (int k = 0; k < m_; ++k) cb_[k] = cost_[basic_[k]];
    Btran(cb_, y_);
    solution.dual.assign(y_.begin(), y_.end());
    solution.reduced_cost.assign(static_cast<size_t>(ns_), 0.0);
    for (int j = 0; j < ns_; ++j) {
      solution.reduced_cost[j] = cost_[j] - DotColumn(y_, j);
    }

    result.basis.structural.assign(status_.begin(), status_.begin() + ns_);
    result.basis.logical.assign(status_.begin() + ns_, status_.end());
  }

  const LpModel& model_;
  const RevisedSimplex::Options& options_;
  const int ns_;  // structural columns
  const int m_;   // rows
  const int n_;   // structural + logical columns

  // Arena backing for everything below: the caller's workspace or a locally
  // owned arena. `scope_` must precede every ArenaVector member so
  // its rewind (to the pre-solve mark) runs after their (trivial) cleanup.
  std::unique_ptr<util::Arena> owned_arena_;
  util::Arena& arena_;
  util::ArenaScope scope_;

  // Structural columns, CSR over columns (entries row-ordered).
  util::ArenaVector<int> col_starts_;
  util::ArenaVector<ColEntry> col_entries_;
  util::ArenaVector<double> lower_, upper_, cost_, b_;

  util::ArenaVector<VarStatus> status_;  // per column
  util::ArenaVector<int> basic_;         // basis position -> column
  util::ArenaVector<double> x_;          // per column

  util::ArenaVector<double> lu_;   // packed L (unit lower) / U factors of B
  util::ArenaVector<double> lut_;  // transposed factors, for Btran
  util::ArenaVector<int> perm_;    // row permutation of the factorization
  util::ArenaVector<Eta> etas_;

  // Per-iteration scratch, sized once in the constructor.
  util::ArenaVector<double> work_v_, work_w_;  // ComputeBasicValues / Btran
  util::ArenaVector<double> cb_, y_, w_, col_;
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
  RETURN_IF_ERROR(model.Validate());
  if (model.num_constraints() == 0) return SolveUnconstrained(model, out);
  Engine engine(model, options);
  return engine.Run(warm_start, out);
}

}  // namespace auditgame::lp
