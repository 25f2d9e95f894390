#include "core/detection.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "math/kernels.h"
#include "util/logging.h"
#include "util/random.h"

namespace auditgame::core {
namespace {

// Per-realization detection contribution for a bin of z benign alerts and
// audit capacity `capacity`, under the chosen semantics.
//  * kExpectedRatio: n/z (Eq. 1 literally); z = 0 is treated as "the attack
//    alert is the whole bin" — detected iff one audit is affordable.
//  * kInclusiveAttack: the attack alert joins the bin, so the bin holds
//    z + 1 alerts and the attack is audited with probability
//    min(capacity, z+1) / (z+1).
//  * kRatioOfExpectations: handled by the caller (needs E[min(cap, z)] and
//    E[z] separately); this helper returns the numerator term min(cap, z).
double DetectionTerm(DetectionModel::Semantics semantics, int capacity,
                     int z) {
  switch (semantics) {
    case DetectionModel::Semantics::kExpectedRatio:
      if (z <= 0) return capacity >= 1 ? 1.0 : 0.0;
      return static_cast<double>(std::min(capacity, z)) / z;
    case DetectionModel::Semantics::kInclusiveAttack:
      return static_cast<double>(std::min(capacity, z + 1)) / (z + 1);
    case DetectionModel::Semantics::kRatioOfExpectations:
      return static_cast<double>(std::min(capacity, z));
  }
  return 0.0;
}

}  // namespace

util::StatusOr<DetectionModel> DetectionModel::Create(
    const GameInstance& instance, double budget, const Options& options) {
  RETURN_IF_ERROR(instance.Validate());
  if (budget < 0) return util::InvalidArgumentError("budget must be >= 0");
  if (options.budget_unit <= 0) {
    return util::InvalidArgumentError("budget_unit must be > 0");
  }
  if (options.mode == Mode::kMonteCarlo && options.mc_samples <= 0) {
    return util::InvalidArgumentError("mc_samples must be > 0");
  }
  DetectionModel model;
  model.options_ = options;
  model.budget_ = budget;
  model.audit_costs_ = instance.audit_costs;
  model.distributions_ = instance.alert_distributions;
  model.thresholds_.assign(instance.num_types(), 0.0);
  model.mean_z_.reserve(instance.num_types());
  for (const auto& dist : model.distributions_) {
    model.mean_z_.push_back(std::max(dist.Mean(), 1e-12));
  }
  if (options.mode == Mode::kMonteCarlo) {
    // Draw the common random numbers once; all threshold vectors are
    // evaluated against the same Z samples, which makes search objectives
    // deterministic and smooth.
    util::Rng rng(options.seed);
    const int t_count = model.num_types();
    const size_t k_count = static_cast<size_t>(options.mc_samples);
    model.samples_.resize(k_count * t_count);
    // Draw order stays sample-major (the historical common-random-number
    // stream); only the storage is type-major.
    for (int k = 0; k < options.mc_samples; ++k) {
      for (int t = 0; t < t_count; ++t) {
        model.samples_[static_cast<size_t>(t) * k_count + k] =
            model.distributions_[t].Sample(rng);
      }
    }
    model.mc_consumption_.resize(model.samples_.size());
  } else {
    model.grid_size_ =
        static_cast<int>(std::floor(budget / options.budget_unit)) + 1;
    model.type_tables_.resize(model.distributions_.size());
  }
  return model;
}

util::Status DetectionModel::SetThresholds(
    const std::vector<double>& thresholds) {
  if (thresholds.size() != static_cast<size_t>(num_types())) {
    return util::InvalidArgumentError("thresholds size != num types");
  }
  for (double b : thresholds) {
    if (b < 0 || !std::isfinite(b)) {
      return util::InvalidArgumentError("thresholds must be finite and >= 0");
    }
  }
  // A type's tables depend on its own threshold alone, so only the types
  // whose threshold changed bitwise are touched (every type on the first
  // call). An ISHM probe scales one or a few thresholds at a time.
  for (size_t t = 0; t < thresholds.size(); ++t) {
    if (tables_ready_ &&
        std::memcmp(&thresholds[t], &thresholds_[t], sizeof(double)) == 0) {
      continue;
    }
    thresholds_[t] = thresholds[t];
    if (t < kMaxSubsetTableTypes) stale_types_ |= uint32_t{1} << t;
    if (options_.mode == Mode::kExact) {
      SelectExactTable(static_cast<int>(t));
    } else {
      PrepareMcTable(static_cast<int>(t));
      ++stats_.types_retabulated;
    }
  }
  tables_ready_ = true;
  table_epoch_ = 0;
  return util::OkStatus();
}

void DetectionModel::SelectExactTable(int t) {
  TypeTables& tables = type_tables_[static_cast<size_t>(t)];
  uint64_t bits;
  std::memcpy(&bits, &thresholds_[static_cast<size_t>(t)], sizeof(bits));
  const int slots = static_cast<int>(tables.threshold_bits.size());
  for (int slot = 0; slot < slots; ++slot) {
    if (tables.threshold_bits[static_cast<size_t>(slot)] == bits) {
      tables.current = slot;
      return;
    }
  }
  if (slots < kTypeTableMemo) {
    tables.current = slots;
    const size_t n = static_cast<size_t>(grid_size_);
    tables.threshold_bits.push_back(bits);
    tables.consumption_size.push_back(0);
    tables.consumption.resize((static_cast<size_t>(slots) + 1) * n);
    tables.g.resize((static_cast<size_t>(slots) + 1) * n);
  } else {
    tables.current = tables.next_evict;
    tables.next_evict = (tables.next_evict + 1) % kTypeTableMemo;
    tables.threshold_bits[static_cast<size_t>(tables.current)] = bits;
  }
  PrepareExactTable(t);
  ++stats_.types_retabulated;
}

void DetectionModel::PrepareExactTable(int t) {
  const double unit = options_.budget_unit;
  const prob::CountDistribution& dist = distributions_[t];
  const double cost = audit_costs_[t];
  const double b = thresholds_[t];
  const int per_type_cap = static_cast<int>(std::floor(b / cost));

  // Consumption distribution: cell(min(b, z * C)) aggregated over z.
  // Once z * C >= b every z consumes exactly b, so the support is small.
  // Under kReserved the whole threshold is consumed deterministically.
  cell_prob_scratch_.assign(static_cast<size_t>(grid_size_), 0.0);
  for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
    const double consumed =
        options_.consumption == Consumption::kReserved ? b
                                                       : std::min(b, z * cost);
    int cell = static_cast<int>(std::llround(consumed / unit));
    cell = std::min(cell, grid_size_ - 1);
    cell_prob_scratch_[static_cast<size_t>(cell)] += dist.Pmf(z);
  }
  TypeTables& tables = type_tables_[static_cast<size_t>(t)];
  const size_t offset =
      static_cast<size_t>(tables.current) * static_cast<size_t>(grid_size_);
  std::pair<int, double>* sparse = tables.consumption.data() + offset;
  int sparse_size = 0;
  for (int cell = 0; cell < grid_size_; ++cell) {
    if (cell_prob_scratch_[static_cast<size_t>(cell)] > 0) {
      sparse[sparse_size++] = {cell,
                               cell_prob_scratch_[static_cast<size_t>(cell)]};
    }
  }
  tables.consumption_size[static_cast<size_t>(tables.current)] = sparse_size;

  // g_t(consumed_cells) = E_z[DetectionTerm(capacity, z)].
  double* g = tables.g.data() + offset;
  for (int s = 0; s < grid_size_; ++s) {
    const double remaining = budget_ - s * unit;
    const int budget_cap =
        std::max(static_cast<int>(std::floor(remaining / cost)), 0);
    const int capacity = std::min(budget_cap, per_type_cap);
    double value = 0.0;
    if (capacity > 0) {
      // Branchy per-z term, so the expectation reduces through the
      // canonical blocked accumulator rather than a vector kernel.
      math::BlockedAccumulator acc;
      for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
        acc.Add(dist.Pmf(z) * DetectionTerm(options_.semantics, capacity, z));
      }
      value = acc.Total();
      if (options_.semantics == Semantics::kRatioOfExpectations) {
        value = std::min(value / mean_z_[static_cast<size_t>(t)], 1.0);
      }
    }
    g[s] = value;
  }
}

void DetectionModel::PrepareMcTable(int t) {
  const size_t k_count = static_cast<size_t>(options_.mc_samples);
  const double b = thresholds_[t];
  const double cost = audit_costs_[t];
  const int* z_row = samples_.data() + static_cast<size_t>(t) * k_count;
  double* out_row = mc_consumption_.data() + static_cast<size_t>(t) * k_count;
  if (options_.consumption == Consumption::kReserved) {
    for (size_t k = 0; k < k_count; ++k) out_row[k] = b;
  } else {
    for (size_t k = 0; k < k_count; ++k) {
      out_row[k] = std::min(b, z_row[k] * cost);
    }
  }
}

DetectionModel::Prefix DetectionModel::EmptyPrefix() const {
  Prefix prefix;
  ResetPrefix(prefix);
  return prefix;
}

void DetectionModel::ResetPrefix(Prefix& prefix) const {
  prefix.placed = 0;
  prefix.table_epoch = table_epoch_;
  if (table_epoch_ != 0) return;
  if (options_.mode == Mode::kExact) {
    prefix.data.assign(static_cast<size_t>(grid_size_), 0.0);
    prefix.data[0] = 1.0;
  } else {
    prefix.data.assign(static_cast<size_t>(options_.mc_samples), 0.0);
  }
}

void DetectionModel::CheckTableEpoch(const Prefix& prefix) const {
  CHECK(prefix.table_epoch == table_epoch_)
      << "table-backed prefix used after SetThresholds";
}

double DetectionModel::PalGivenPrefix(const Prefix& prefix, int type) const {
  if (prefix.table_epoch != 0) {
    CheckTableEpoch(prefix);
    return subset_table_[static_cast<size_t>(prefix.placed) *
                             static_cast<size_t>(num_types()) +
                         static_cast<size_t>(type)];
  }
  if (options_.mode == Mode::kExact) {
    // Weighted-tail accumulation: prefix probability x conditional
    // detection, one dense kernel dot over the budget grid.
    return math::Dot(prefix.data.data(), g(type),
                     static_cast<size_t>(grid_size_));
  }
  // Monte Carlo: average the detection term over samples. The per-sample
  // term is branchy scalar code, so it reduces through the canonical
  // blocked accumulator; the z sum is exact in int64 (order-free).
  const size_t k_count = static_cast<size_t>(options_.mc_samples);
  const double cost = audit_costs_[type];
  const int per_type_cap =
      static_cast<int>(std::floor(thresholds_[type] / cost));
  const int* z_row = samples_.data() + static_cast<size_t>(type) * k_count;
  math::BlockedAccumulator total;
  int64_t z_total = 0;
  for (size_t k = 0; k < k_count; ++k) {
    const double remaining = budget_ - prefix.data[k];
    const int budget_cap =
        std::max(static_cast<int>(std::floor(remaining / cost)), 0);
    const int capacity = std::min(budget_cap, per_type_cap);
    total.Add(DetectionTerm(options_.semantics, capacity, z_row[k]));
    z_total += z_row[k];
  }
  if (options_.semantics == Semantics::kRatioOfExpectations) {
    return z_total > 0
               ? std::min(total.Total() / static_cast<double>(z_total), 1.0)
               : 0.0;
  }
  return total.Total() / options_.mc_samples;
}

void DetectionModel::ExtendPrefix(Prefix& prefix, int type) const {
  if (prefix.table_epoch != 0) {
    CheckTableEpoch(prefix);
    prefix.placed |= uint32_t{1} << type;
    return;
  }
  if (options_.mode == Mode::kExact) {
    // Double-buffered through prefix.scratch so repeated extensions never
    // allocate after the first.
    prefix.scratch.resize(static_cast<size_t>(grid_size_));
    ConvolveInto(prefix.data.data(), type, prefix.scratch.data());
    prefix.data.swap(prefix.scratch);
    return;
  }
  const size_t k_count = static_cast<size_t>(options_.mc_samples);
  math::Add(mc_consumption_.data() + static_cast<size_t>(type) * k_count,
            prefix.data.data(), k_count);
}

void DetectionModel::ConvolveInto(const double* prefix, int type,
                                  double* next) const {
  // The consumption pmf is sparse; each support point (cell, q) is one
  // shifted-axpy pass over the whole prefix with saturation at the last
  // grid cell.
  const size_t n = static_cast<size_t>(grid_size_);
  std::fill(next, next + n, 0.0);
  const TypeTables& tables = type_tables_[static_cast<size_t>(type)];
  const std::pair<int, double>* sparse =
      tables.consumption.data() + static_cast<size_t>(tables.current) * n;
  const int sparse_size =
      tables.consumption_size[static_cast<size_t>(tables.current)];
  for (int k = 0; k < sparse_size; ++k) {
    math::ConvolveShiftSaturate(prefix, n,
                                static_cast<size_t>(sparse[k].first),
                                sparse[k].second, next);
  }
}

util::Status DetectionModel::RefreshSubsetTable() {
  if (options_.mode != Mode::kExact) {
    return util::FailedPreconditionError(
        "the subset table needs exact detection");
  }
  const int t_count = num_types();
  if (t_count > kMaxSubsetTableTypes) {
    return util::InvalidArgumentError("too many types for a subset table");
  }
  if (!tables_ready_) {
    return util::FailedPreconditionError("no thresholds installed");
  }
  const size_t n = static_cast<size_t>(grid_size_);
  const uint32_t full = (uint32_t{1} << t_count) - 1;
  uint32_t moved = stale_types_;
  if (subset_table_.empty()) {
    // First build: every set is new. The full set has no type left to
    // price, so its prefix is never stored.
    subset_table_.assign(static_cast<size_t>(t_count) << t_count, 0.0);
    subset_prefixes_.assign(static_cast<size_t>(full) * n, 0.0);
    subset_prefixes_[0] = 1.0;
    moved = full;
  }
  stale_types_ = 0;
  if (table_epoch_ == 0) table_epoch_ = ++last_epoch_;
  if (moved == 0) return util::OkStatus();
  ++stats_.table_refreshes;
  // Ascending set order builds S \ {max S} before S, and convolves each
  // set's types in ascending order: the order of a full rebuild.
  int top = 0;  // max S
  for (uint32_t set = 1; set < full; ++set) {
    if (set == uint32_t{2} << top) ++top;
    if ((set & moved) == 0) continue;
    const uint32_t rest = set & ~(uint32_t{1} << top);
    ConvolveInto(subset_prefixes_.data() + static_cast<size_t>(rest) * n, top,
                 subset_prefixes_.data() + static_cast<size_t>(set) * n);
  }
  for (uint32_t set = 0; set < full; ++set) {
    const uint32_t redo = (set & moved) != 0 ? full & ~set : moved & ~set;
    if (redo == 0) continue;
    const double* prefix = subset_prefixes_.data() + static_cast<size_t>(set) * n;
    double* row = subset_table_.data() + static_cast<size_t>(set) * t_count;
    for (int t = 0; t < t_count; ++t) {
      if ((redo >> t) & 1u) row[t] = math::Dot(prefix, g(t), n);
    }
  }
  return util::OkStatus();
}

util::StatusOr<std::vector<double>> DetectionModel::DetectionProbabilities(
    const std::vector<int>& ordering) const {
  std::vector<double> pal;
  Prefix prefix;
  RETURN_IF_ERROR(DetectionProbabilitiesInto(ordering, prefix, pal));
  return pal;
}

util::Status DetectionModel::DetectionProbabilitiesInto(
    const std::vector<int>& ordering, Prefix& prefix,
    std::vector<double>& pal) const {
  const int t_count = num_types();
  if (static_cast<int>(ordering.size()) != t_count) {
    return util::InvalidArgumentError("ordering must contain every type");
  }
  if (t_count <= 64) {
    // Allocation-free permutation check for the common instance sizes.
    uint64_t seen = 0;
    for (int t : ordering) {
      const uint64_t bit = uint64_t{1} << (t & 63);
      if (t < 0 || t >= t_count || (seen & bit)) {
        return util::InvalidArgumentError("ordering is not a permutation");
      }
      seen |= bit;
    }
  } else {
    std::vector<bool> seen(static_cast<size_t>(t_count), false);
    for (int t : ordering) {
      if (t < 0 || t >= t_count || seen[static_cast<size_t>(t)]) {
        return util::InvalidArgumentError("ordering is not a permutation");
      }
      seen[static_cast<size_t>(t)] = true;
    }
  }
  pal.assign(static_cast<size_t>(t_count), 0.0);
  ResetPrefix(prefix);
  for (size_t i = 0; i < ordering.size(); ++i) {
    const int t = ordering[i];
    pal[static_cast<size_t>(t)] = PalGivenPrefix(prefix, t);
    if (i + 1 < ordering.size()) ExtendPrefix(prefix, t);
  }
  return util::OkStatus();
}

}  // namespace auditgame::core
