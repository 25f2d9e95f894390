#include "core/cggs.h"

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <numeric>

#include "core/game_lp.h"
#include "core/master_lp.h"
#include "math/kernels.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace auditgame::core {
namespace {

// Adds y times envelope row r's utility form to `f`.
void AddUtilityRow(const UtilityRows& rows, size_t r, double y,
                   DualUtility& f) {
  f.constant += y * rows.constant(r);
  math::Axpy(y, rows.slope(r), f.slope.data(), f.slope.size());
}

// True iff `ordering` is a permutation of {0 .. t_count-1}. Warm-start
// orderings arrive from cached policies that may have been solved for a
// different instance shape; anything else would corrupt the master LP.
bool IsValidOrdering(const std::vector<int>& ordering, int t_count) {
  if (static_cast<int>(ordering.size()) != t_count) return false;
  std::vector<bool> seen(static_cast<size_t>(t_count), false);
  for (int t : ordering) {
    if (t < 0 || t >= t_count || seen[static_cast<size_t>(t)]) return false;
    seen[static_cast<size_t>(t)] = true;
  }
  return true;
}

// Seed of the Rng that shuffles probe candidate `probe` of pricing round
// `round`: a pure function of the solve seed and the candidate's position,
// so the probe set is identical no matter which thread generates it (and
// identical between the serial and parallel paths).
uint64_t ProbeSeed(uint64_t seed, int round, int probe) {
  util::Fnv1a hash(seed);
  hash.AppendU64(static_cast<uint64_t>(round));
  hash.AppendU64(static_cast<uint64_t>(probe));
  return hash.value();
}

// Runs fn(chunk) for chunk in [0, num_chunks) — inline when `pool` is null
// or there is only one chunk, fanned across the pool otherwise. Callers
// write results into slots preassigned by chunk, so the outcome does not
// depend on scheduling; Wait-for-all happens via the futures.
template <typename Fn>
void RunChunks(util::ThreadPool* pool, int num_chunks, const Fn& fn) {
  if (pool == nullptr || num_chunks <= 1) {
    for (int chunk = 0; chunk < num_chunks; ++chunk) fn(chunk);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(num_chunks));
  for (int chunk = 0; chunk < num_chunks; ++chunk) {
    futures.push_back(pool->Submit([&fn, chunk] { fn(chunk); }));
  }
  // Drain every chunk before propagating a failure: rethrowing from the
  // first get() would unwind the caller's slots while later chunks still
  // reference them.
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

// Greedy pricing (Algorithm 1, lines 4-7): grow an ordering one type at a
// time, always appending the type that minimizes the dual-weighted utility
// `f` of the partial ordering (un-placed types contribute Pal = 0). `f` is
// affine in Pal, so appending t lowers it by slope[t] * Pal(t | placed):
// each step appends the type with the largest such product, ties to the
// smallest type index. A step's per-type products are independent; with a
// pool they are computed in contiguous chunks into per-type slots, each
// one multiply, so the result is bit-identical across thread counts.
// `placed`, `scores`, `prefix` and `ordering_out` are caller-owned scratch
// reused across rounds, so steady-state pricing rounds run with zero heap
// allocations.
void GreedyOrdering(const DualUtility& f, const DetectionModel& detection,
                    util::ThreadPool* pool, int max_chunks,
                    std::vector<uint8_t>& placed, std::vector<double>& scores,
                    DetectionModel::Prefix& prefix,
                    std::vector<int>& ordering_out) {
  const int t_count = detection.num_types();
  ordering_out.clear();
  ordering_out.reserve(static_cast<size_t>(t_count));
  const int num_chunks = pool == nullptr ? 1 : std::min(max_chunks, t_count);
  placed.assign(static_cast<size_t>(t_count), 0);
  scores.resize(static_cast<size_t>(t_count));

  detection.ResetPrefix(prefix);
  for (int step = 0; step < t_count; ++step) {
    RunChunks(pool, num_chunks, [&](int chunk) {
      const int begin = chunk * t_count / num_chunks;
      const int end = (chunk + 1) * t_count / num_chunks;
      for (int t = begin; t < end; ++t) {
        if (placed[t]) continue;
        scores[t] = f.slope[static_cast<size_t>(t)] *
                    detection.PalGivenPrefix(prefix, t);
      }
    });
    int best_type = -1;
    for (int t = 0; t < t_count; ++t) {
      if (placed[t]) continue;
      if (best_type < 0 || scores[t] > scores[best_type]) best_type = t;
    }
    placed[best_type] = 1;
    ordering_out.push_back(best_type);
    if (step + 1 < t_count) detection.ExtendPrefix(prefix, best_type);
  }
}

}  // namespace

util::Status AddSeedOrderings(const CompiledGame& game,
                              const std::vector<std::vector<int>>& seeds,
                              RestrictedMasterLp& master) {
  for (const std::vector<int>& ordering : seeds) {
    if (!IsValidOrdering(ordering, game.num_types)) continue;
    if (master.HasOrdering(ordering)) continue;
    RETURN_IF_ERROR(master.AddOrdering(ordering));
  }
  return util::OkStatus();
}

util::StatusOr<CggsResult> SolveCggs(const CompiledGame& game,
                                     DetectionModel& detection,
                                     const std::vector<double>& thresholds,
                                     const CggsOptions& options) {
  RETURN_IF_ERROR(detection.SetThresholds(thresholds));

  // The restricted master lives across all pricing iterations: Q starts
  // from the valid, deduplicated warm-start set, every new column is
  // appended to it, and each re-solve resumes from the previous optimal
  // basis instead of paying a cold two-phase solve per round.
  RestrictedMasterLp master(game, detection, options.max_columns);
  RETURN_IF_ERROR(AddSeedOrderings(game, options.initial_orderings, master));
  RestrictedLpSolution solution;
  ASSIGN_OR_RETURN(CggsResult result,
                   SolveCggsOnMaster(game, detection, options, master,
                                     solution));
  result.columns = master.orderings();
  return result;
}

util::StatusOr<CggsResult> SolveCggsOnMaster(const CompiledGame& game,
                                             const DetectionModel& detection,
                                             const CggsOptions& options,
                                             RestrictedMasterLp& master_lp,
                                             RestrictedLpSolution& master) {
  // One pool for the whole loop — the caller's shared pool when provided,
  // a locally owned one otherwise; null selects the inline serial path.
  // Work is chunked by pricing_threads (never by pool size), and every
  // pricing round runs the same per-candidate arithmetic and the same
  // deterministic reductions, so the result is bit-for-bit independent of
  // pricing_threads and of which pool runs it (see CggsOptions).
  util::ThreadPool* pool = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (options.pricing_threads > 1) {
    pool = options.pricing_pool;
    if (pool == nullptr) {
      owned_pool = std::make_unique<util::ThreadPool>(options.pricing_threads);
      pool = owned_pool.get();
    }
  }

  if (master_lp.num_orderings() == 0) {
    std::vector<int> identity(game.num_types);
    std::iota(identity.begin(), identity.end(), 0);
    RETURN_IF_ERROR(master_lp.AddOrdering(identity));
  }
  const RestrictedMasterLp::Stats stats_before = master_lp.stats();

  CggsResult result;

  // Round-persistent scratch: candidate orderings, their reduced-cost
  // slots, and one (prefix, pal) evaluation scratch per candidate slot —
  // preassigned by candidate index, so the parallel sweep touches disjoint
  // state and steady-state rounds are allocation-free.
  const size_t num_candidates = static_cast<size_t>(1 + options.random_probes);
  std::vector<std::vector<int>> candidates(num_candidates);
  std::vector<uint8_t> skip;
  std::vector<double> reduced_costs;
  std::vector<util::Status> statuses;
  struct CandidateScratch {
    DetectionModel::Prefix prefix;
    std::vector<double> pal;
  };
  std::vector<CandidateScratch> eval_scratch(num_candidates);
  std::vector<uint8_t> greedy_placed;
  std::vector<double> greedy_scores;
  DetectionModel::Prefix greedy_prefix;
  DualUtility pricing;

  for (int round = 0;; ++round) {
    RETURN_IF_ERROR(master_lp.SolveInto(master));
    ++result.lp_solves;
    if (master_lp.num_orderings() >= options.max_columns) break;

    // Price candidates: the greedy ordering plus a few random probes, each
    // probe shuffled by its own pre-seeded Rng.
    util::Timer pricing_timer;
    PricingDualUtility(game, master_lp.utility_rows(), master.victim_duals,
                       pricing);
    GreedyOrdering(pricing, detection, pool, options.pricing_threads,
                   greedy_placed, greedy_scores, greedy_prefix, candidates[0]);
    for (int r = 0; r < options.random_probes; ++r) {
      std::vector<int>& random_ordering = candidates[static_cast<size_t>(r) + 1];
      random_ordering.resize(static_cast<size_t>(game.num_types));
      std::iota(random_ordering.begin(), random_ordering.end(), 0);
      util::Rng probe_rng(ProbeSeed(options.seed, round, r));
      probe_rng.Shuffle(random_ordering);
    }

    // Reduced costs of the novel candidates, one preassigned slot each.
    skip.assign(num_candidates, 0);
    for (size_t i = 0; i < num_candidates; ++i) {
      skip[i] = master_lp.HasOrdering(candidates[i]) ? 1 : 0;  // already in Q
    }
    reduced_costs.assign(num_candidates, 0.0);
    statuses.assign(num_candidates, util::OkStatus());
    RunChunks(pool, static_cast<int>(num_candidates), [&](int i) {
      const size_t slot = static_cast<size_t>(i);
      if (skip[slot]) return;
      CandidateScratch& scratch = eval_scratch[slot];
      const util::Status status = detection.DetectionProbabilitiesInto(
          candidates[slot], scratch.prefix, scratch.pal);
      if (!status.ok()) {
        statuses[slot] = status;
        return;
      }
      reduced_costs[slot] =
          pricing.Value(scratch.pal.data()) - master.convexity_dual;
    });
    for (const util::Status& status : statuses) RETURN_IF_ERROR(status);

    // Deterministic reduction: strictly below the tolerance wins; exact
    // reduced-cost ties go to the lexicographically smallest ordering.
    int best_index = -1;
    double best_rc = -options.reduced_cost_tolerance;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (skip[i]) continue;
      const double rc = reduced_costs[i];
      if (rc < best_rc || (best_index >= 0 && rc == best_rc &&
                           candidates[i] < candidates[static_cast<size_t>(
                                               best_index)])) {
        best_rc = rc;
        best_index = static_cast<int>(i);
      }
    }
    result.pricing_seconds += pricing_timer.ElapsedSeconds();
    if (best_index < 0) break;  // no improving column
    RETURN_IF_ERROR(
        master_lp.AddOrdering(candidates[static_cast<size_t>(best_index)]));
    ++result.columns_generated;
  }

  result.objective = master.objective;
  result.warm_lp_solves =
      master_lp.stats().warm_solves - stats_before.warm_solves;
  result.master_lp_iterations =
      master_lp.stats().iterations - stats_before.iterations;
  result.cold_retries =
      master_lp.stats().cold_retries - stats_before.cold_retries;
  result.policy.budget = detection.budget();
  result.policy.thresholds = detection.thresholds();
  const std::vector<std::vector<int>>& columns = master_lp.orderings();
  for (size_t o = 0; o < columns.size(); ++o) {
    if (master.ordering_probs[o] > 1e-9) {
      result.policy.orderings.push_back(columns[o]);
      result.policy.probabilities.push_back(master.ordering_probs[o]);
    }
  }
  double total = 0.0;
  for (double p : result.policy.probabilities) total += p;
  if (total > 0) {
    for (double& p : result.policy.probabilities) p /= total;
  }
  return result;
}

double DualUtility::Value(const double* pal) const {
  return constant - math::Dot(slope.data(), pal, slope.size());
}

void PricingDualUtility(const CompiledGame& game, const UtilityRows& rows,
                        const std::vector<std::vector<double>>& victim_duals,
                        DualUtility& out) {
  out.constant = 0.0;
  out.slope.assign(static_cast<size_t>(game.num_types), 0.0);
  size_t r = 0;
  for (size_t g = 0; g < game.groups.size(); ++g) {
    for (const int v : game.groups[g].envelope) {
      const double y = victim_duals[g][static_cast<size_t>(v)];
      if (y > 0) AddUtilityRow(rows, r, y, out);
      ++r;
    }
  }
}

void ProjectDualUtility(const CompiledGame& game, const UtilityRows& rows,
                        const std::vector<std::vector<double>>& victim_duals,
                        DualUtility& out) {
  out.constant = 0.0;
  out.slope.assign(static_cast<size_t>(game.num_types), 0.0);
  size_t r = 0;
  for (size_t g = 0; g < game.groups.size(); ++g) {
    const AdversaryGroup& group = game.groups[g];
    const std::vector<double>& duals = victim_duals[g];
    double sum = 0.0;
    for (const int v : group.envelope) {
      sum += std::max(0.0, duals[static_cast<size_t>(v)]);
    }
    // Scale so sum_v y_gv = w_g: then u_g drops out of the Lagrangian. An
    // opt-out group's u_g >= 0 also allows any sum below w_g.
    double scale = 1.0;
    if (sum > 0.0 && (!group.can_opt_out || sum > group.weight)) {
      scale = group.weight / sum;
    }
    for (const int v : group.envelope) {
      const double y =
          sum > 0.0
              ? std::max(0.0, duals[static_cast<size_t>(v)]) * scale
              : group.weight / static_cast<double>(group.envelope.size());
      if (y != 0.0) AddUtilityRow(rows, r, y, out);
      ++r;
    }
  }
}

double MinOverOrderings(const DetectionModel& detection,
                        const DualUtility* ring, size_t count,
                        std::vector<double>& scratch) {
  double bound = -std::numeric_limits<double>::infinity();
  if (count == 0) return bound;
  const int t_count = detection.num_types();
  const uint32_t full = (uint32_t{1} << t_count) - 1;
  const double* table = detection.subset_table().data();
  // scratch = slopes (type-major) then best (set-major), entries innermost
  // in both, so the inner loop runs over contiguous entries.
  scratch.resize((static_cast<size_t>(t_count) + full + 1) * count);
  double* slopes = scratch.data();
  double* best = slopes + static_cast<size_t>(t_count) * count;
  for (int t = 0; t < t_count; ++t) {
    for (size_t k = 0; k < count; ++k) {
      slopes[static_cast<size_t>(t) * count + k] =
          ring[k].slope[static_cast<size_t>(t)];
    }
  }
  for (size_t k = 0; k < count; ++k) best[k] = 0.0;
  for (uint32_t set = 1; set <= full; ++set) {
    double* value = best + static_cast<size_t>(set) * count;
    for (size_t k = 0; k < count; ++k) {
      value[k] = -std::numeric_limits<double>::infinity();
    }
    for (int t = 0; t < t_count; ++t) {
      if (((set >> t) & 1u) == 0) continue;
      const uint32_t before = set & ~(uint32_t{1} << t);
      const double pal = table[static_cast<size_t>(before) * t_count + t];
      const double* prior = best + static_cast<size_t>(before) * count;
      const double* slope = slopes + static_cast<size_t>(t) * count;
      for (size_t k = 0; k < count; ++k) {
        value[k] = std::max(value[k], prior[k] + slope[k] * pal);
      }
    }
  }
  const double* at_full = best + static_cast<size_t>(full) * count;
  for (size_t k = 0; k < count; ++k) {
    bound = std::max(bound, ring[k].constant - at_full[k]);
  }
  return bound;
}

}  // namespace auditgame::core
