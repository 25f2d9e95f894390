#ifndef AUDIT_GAME_CORE_DETECTION_H_
#define AUDIT_GAME_CORE_DETECTION_H_

#include <cstdint>
#include <vector>

#include "core/game.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::core {

/// Computes the per-type audit (detection) probabilities of Eq. 1,
///   Pal(o, b, t) = E_Z [ n_t(o, b, Z) / Z_t ],
/// for a fixed budget B and threshold vector b, under the paper's recourse
/// semantics (types earlier in the ordering consume budget
/// min(b_{o_i}, Z_{o_i} C_{o_i}) each).
///
/// Two evaluation modes:
///  * kExact — exploits independence of the Z_t: the budget consumed by the
///    prefix of an ordering is a small discrete distribution obtained by
///    convolution on an integer budget grid. Exact (up to grid rounding,
///    which is zero when B, b_t and C_t are integers — true for every
///    experiment in the paper) and far faster than enumeration of the joint
///    support.
///  * kMonteCarlo — the paper's approach: average n_t/Z_t over samples of Z.
///    Works for arbitrary (non-grid) costs.
///
/// A realization Z_t = 0 contributes detection probability 1 when at least
/// one audit of type t is affordable (the attacker's alert would be the only
/// element of the bin), else 0; see docs/DESIGN.md "The Z_t = 0 convention".
///
/// The incremental *prefix* API lets CGGS grow an ordering one type at a
/// time in O(grid) per candidate instead of recomputing full orderings, and
/// in O(1) while the subset table is current (RefreshSubsetTable).
class DetectionModel {
 public:
  enum class Mode { kExact, kMonteCarlo };

  /// How E_Z[n_t / Z_t] is interpreted. The paper's Eq. 1 is the literal
  /// expected ratio; `kInclusiveAttack` additionally counts the attacker's
  /// own alert in the bin (detection = n'_t / (Z_t + 1) with n'_t computed
  /// on the inflated bin), which is the exact probability under the
  /// uniformly-audited-bin semantics and reproduces Table III most closely
  /// (see docs/DESIGN.md "Calibration notes").
  enum class Semantics {
    kExpectedRatio,
    kInclusiveAttack,
    kRatioOfExpectations,
  };

  /// How much budget a type earlier in the ordering consumes.
  ///  * kRealized — min(b_t, Z_t C_t), the paper's Eq. for B_t: unspent
  ///    threshold (when few alerts arrive) flows to later types.
  ///  * kReserved — b_t always: the threshold is earmarked up front.
  enum class Consumption { kRealized, kReserved };

  struct Options {
    Mode mode = Mode::kExact;
    Semantics semantics = Semantics::kExpectedRatio;
    Consumption consumption = Consumption::kRealized;
    /// Samples for kMonteCarlo.
    int mc_samples = 2000;
    uint64_t seed = 20180422;
    /// Budget grid resolution for kExact. B, b_t and C_t are rounded to
    /// multiples of this unit.
    double budget_unit = 1.0;
  };

  /// Builds a model bound to the instance's distributions and audit costs.
  static util::StatusOr<DetectionModel> Create(const GameInstance& instance,
                                               double budget,
                                               const Options& options);
  static util::StatusOr<DetectionModel> Create(const GameInstance& instance,
                                               double budget) {
    return Create(instance, budget, Options());
  }

  /// Installs the threshold vector used by subsequent queries. Negative
  /// entries are invalid. Cheap enough to call inside search loops: only
  /// the types whose threshold changed bitwise since the last call are
  /// touched, and a (type, threshold) pair tabulated before in this model
  /// reuses its tables (kExact; at most kTypeTableMemo per type, oldest
  /// replaced first). The tables are identical to a fresh model's. The
  /// subset table stops being current until the next RefreshSubsetTable.
  util::Status SetThresholds(const std::vector<double>& thresholds);

  const std::vector<double>& thresholds() const { return thresholds_; }
  double budget() const { return budget_; }
  int num_types() const { return static_cast<int>(audit_costs_.size()); }
  Mode mode() const { return options_.mode; }
  const Options& options() const { return options_; }

  /// Pal for every type under a complete ordering (a permutation of all
  /// types). Types absent from the ordering would never be audited; the
  /// ordering must contain each type exactly once.
  util::StatusOr<std::vector<double>> DetectionProbabilities(
      const std::vector<int>& ordering) const;

  /// ---- Incremental prefix API -----------------------------------------
  /// A Prefix represents the distribution of budget consumed by an ordered
  /// set of already-placed types. kExact: probability vector over the
  /// budget grid. kMonteCarlo: consumed budget per sample. A prefix reset
  /// while the subset table is current is *table-backed* instead: it keeps
  /// only the set of placed types and reads Pal(t | set) from the table.
  /// It is valid until the next SetThresholds; using it after that is a
  /// fatal CHECK failure.
  struct Prefix {
    std::vector<double> data;
    /// Convolution double-buffer: ExtendPrefix writes into `scratch` and
    /// swaps, so repeated extensions reuse the same two allocations for the
    /// life of the prefix (CGGS holds prefixes across whole pricing rounds).
    std::vector<double> scratch;
    /// Table-backed only: the placed types as a bit mask, and the table
    /// epoch the prefix reads (0 for a grid- or sample-backed prefix).
    uint32_t placed = 0;
    uint64_t table_epoch = 0;
  };

  /// Prefix of the empty ordering (no budget consumed).
  Prefix EmptyPrefix() const;

  /// Re-initializes `prefix` to the empty-ordering state in place, keeping
  /// its buffers — the allocation-free form of EmptyPrefix for callers that
  /// hold a Prefix across pricing rounds.
  void ResetPrefix(Prefix& prefix) const;

  /// Pal of `type` if appended right after the prefix.
  double PalGivenPrefix(const Prefix& prefix, int type) const;

  /// Appends `type` to the prefix (consumes its budget).
  void ExtendPrefix(Prefix& prefix, int type) const;

  /// Allocation-free variant of DetectionProbabilities for hot loops (CGGS
  /// reduced-cost sweeps): `prefix` and `pal` are caller-owned scratch
  /// reused across calls — both are reset/resized in place, so
  /// steady-state calls never touch the heap.
  util::Status DetectionProbabilitiesInto(const std::vector<int>& ordering,
                                          Prefix& prefix,
                                          std::vector<double>& pal) const;

  /// ---- Subset table -----------------------------------------------------
  /// A type's Pal depends only on the *set* of types placed before it: a
  /// prefix is a saturating convolution, and convolution commutes. The
  /// subset table holds Pal(t | S) for the installed thresholds, for every
  /// set S of types (a bit mask) and every type t outside it, at index
  /// S * num_types() + t (entries with t in S are 0). Its memory grows as
  /// 2^T times the budget grid, hence the cap.
  static constexpr int kMaxSubsetTableTypes = 12;

  /// Brings the subset table up to the installed thresholds and makes it
  /// current, so prefixes reset from now until the next SetThresholds are
  /// table-backed. The table keeps one grid prefix per set, built as
  /// prefix(S) = prefix(S \ {max S}) convolved with max S; a refresh
  /// recomputes only the prefixes of sets holding a type whose threshold
  /// moved since the last refresh, and only the entries (S, t) where t
  /// moved or S holds a moved type. The result is bitwise equal to a full
  /// rebuild (the first call builds everything); with nothing moved it is
  /// a no-op. kExact only, at most kMaxSubsetTableTypes types.
  util::Status RefreshSubsetTable();

  /// The table the last RefreshSubsetTable left (empty before the first).
  const std::vector<double>& subset_table() const { return subset_table_; }

  /// Per-model work counters.
  struct Stats {
    /// RefreshSubsetTable calls that recomputed any part of the table.
    int64_t table_refreshes = 0;
    /// Per-type tables tabulated by SetThresholds (memo misses).
    int64_t types_retabulated = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Tabulated thresholds kept per type for SetThresholds to reuse.
  static constexpr int kTypeTableMemo = 32;

 private:
  DetectionModel() = default;

  // kExact: points type t at the memoized tables of thresholds_[t],
  // tabulating them (PrepareExactTable) on a miss.
  void SelectExactTable(int t);
  // Tabulate type t's tables for thresholds_[t] into its current slot.
  void PrepareExactTable(int t);
  void PrepareMcTable(int t);

  // kExact: type t's g row for the installed threshold.
  const double* g(int t) const {
    const TypeTables& tables = type_tables_[static_cast<size_t>(t)];
    return tables.g.data() +
           static_cast<size_t>(tables.current) * static_cast<size_t>(grid_size_);
  }

  // kExact: writes the grid distribution of `prefix` followed by `type`
  // into `next` (grid_size_ cells, distinct from `prefix`).
  void ConvolveInto(const double* prefix, int type, double* next) const;

  // Aborts unless the table-backed `prefix` reads the current table.
  void CheckTableEpoch(const Prefix& prefix) const;

  Options options_;
  double budget_ = 0.0;
  std::vector<double> audit_costs_;
  std::vector<prob::CountDistribution> distributions_;
  std::vector<double> thresholds_;
  std::vector<double> mean_z_;  // E[Z_t], for kRatioOfExpectations

  // --- kExact state ---
  int grid_size_ = 0;  // number of cells: floor(B/unit) + 1
  // One type's tables for up to kTypeTableMemo thresholds, slot-major with
  // grid_size_ entries per slot:
  //  * consumption: sparse distribution of round(min(b_t, Z_t C_t)/unit)
  //    as (cell, probability) pairs, consumption_size[slot] of them;
  //  * g[cells_consumed] = E_z[detection | remaining budget].
  struct TypeTables {
    std::vector<uint64_t> threshold_bits;
    std::vector<int> consumption_size;
    std::vector<std::pair<int, double>> consumption;
    std::vector<double> g;
    int current = 0;     // slot of thresholds_[t]
    int next_evict = 0;  // slot a miss overwrites once the memo is full
  };
  std::vector<TypeTables> type_tables_;

  // --- kMonteCarlo state ---
  // Type-major layout so the per-type hot loops (PalGivenPrefix,
  // ExtendPrefix) touch contiguous memory the kernels can stream over:
  // samples_[t*K + k] = sampled Z_t for sample k. The samples are still
  // DRAWN in sample-major order (k outer, t inner) so the common random
  // numbers match the pre-refactor model bit for bit.
  std::vector<int> samples_;
  // mc_consumption_[t*K + k] = min(b_t, Z_t C_t).
  std::vector<double> mc_consumption_;

  // False until the first SetThresholds has built every type's tables.
  bool tables_ready_ = false;
  // SetThresholds scratch (reused across calls; ISHM sweeps call
  // SetThresholds in a loop).
  std::vector<double> cell_prob_scratch_;

  // Subset table and one grid prefix per set S (all but the full set) at
  // offset S * grid_size_.
  std::vector<double> subset_table_;
  std::vector<double> subset_prefixes_;
  // Types whose threshold moved since the last refresh.
  uint32_t stale_types_ = 0;
  // Nonzero while the table is current: the epoch table-backed prefixes
  // carry. Every refresh after a SetThresholds starts a new epoch.
  uint64_t table_epoch_ = 0;
  uint64_t last_epoch_ = 0;
  Stats stats_;
};

}  // namespace auditgame::core

#endif  // AUDIT_GAME_CORE_DETECTION_H_
