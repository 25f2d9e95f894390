#include "core/ishm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "core/game_lp.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace auditgame::core {
namespace {

// Effective thresholds: whole audits only. Keyed for memoization. Writes
// into a caller-owned buffer — the ISHM sweep calls this per candidate
// move, so it reuses one buffer instead of allocating each time.
void EffectiveThresholdsInto(const std::vector<double>& raw,
                             const std::vector<double>& costs,
                             bool floor_enabled,
                             std::vector<double>& effective) {
  effective.resize(raw.size());
  for (size_t t = 0; t < raw.size(); ++t) {
    effective[t] = floor_enabled
                       ? std::floor(raw[t] / costs[t] + 1e-9) * costs[t]
                       : raw[t];
  }
}

void CacheKeyInto(const std::vector<double>& effective,
                  std::vector<int64_t>& key) {
  key.resize(effective.size());
  for (size_t t = 0; t < effective.size(); ++t) {
    key[t] = static_cast<int64_t>(std::llround(effective[t] * 4096.0));
  }
}

}  // namespace

util::StatusOr<IshmResult> SolveIshm(const GameInstance& instance,
                                     const ThresholdEvaluator& evaluator,
                                     const IshmOptions& options) {
  // Negated comparison so NaN (which fails every ordering test, and would
  // make the ratio loop empty and the sweep spin forever) is rejected too.
  if (!(options.step_size > 0.0 && options.step_size < 1.0)) {
    return util::InvalidArgumentError("step_size must be in (0, 1)");
  }
  RETURN_IF_ERROR(instance.Validate());
  const int t_count = instance.num_types();
  const int num_ratios =
      static_cast<int>(std::ceil(1.0 / options.step_size - 1e-12));

  IshmResult result;
  result.stats = IshmStats();

  // Memoized evaluation of a raw threshold vector. The effective/key
  // buffers persist across the sweep's hundreds of candidate evaluations;
  // only a new vector materializes a stored key. A vector the bound
  // skipped is memoized with its bound until it is evaluated.
  struct MemoEntry {
    bool evaluated = false;
    double bound = -std::numeric_limits<double>::infinity();
    ThresholdEvaluation eval;
  };
  std::map<std::vector<int64_t>, MemoEntry> cache;
  ObjectiveBound lower_bound;
  std::vector<double> effective_buf;
  std::vector<int64_t> key_buf;
  // Returns null when the bound proves the vector's objective is at least
  // `cutoff`; otherwise its evaluation, owned by the memo (std::map nodes
  // never move).
  auto evaluate = [&](const std::vector<double>& raw, double cutoff)
      -> util::StatusOr<const ThresholdEvaluation*> {
    ++result.stats.evaluations;
    EffectiveThresholdsInto(raw, instance.audit_costs,
                            options.floor_to_audit_cost, effective_buf);
    CacheKeyInto(effective_buf, key_buf);
    auto [it, inserted] = cache.try_emplace(key_buf);
    MemoEntry& entry = it->second;
    if (entry.evaluated) return &entry.eval;
    if (inserted && lower_bound) entry.bound = lower_bound(effective_buf);
    if (entry.bound >= cutoff) {
      ++result.stats.pruned;
      return nullptr;
    }
    ++result.stats.distinct_evaluations;
    ASSIGN_OR_RETURN(entry.eval, evaluator(effective_buf));
    entry.evaluated = true;
    result.stats.cggs.Add(entry.eval.work);
    if (entry.eval.lower_bound) lower_bound = entry.eval.lower_bound;
    return &entry.eval;
  };
  constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

  // Line 1: initialize with the full-coverage upper bounds, or — warm
  // start — with the caller-provided seed clamped into [0, upper bound].
  std::vector<double> thresholds(t_count);
  for (int t = 0; t < t_count; ++t) {
    thresholds[t] =
        instance.audit_costs[t] * instance.alert_distributions[t].max_value();
  }
  const bool warm_started = !options.initial_thresholds.empty();
  if (warm_started) {
    if (static_cast<int>(options.initial_thresholds.size()) != t_count) {
      return util::InvalidArgumentError(
          "initial_thresholds must have one entry per type");
    }
    for (int t = 0; t < t_count; ++t) {
      thresholds[t] = std::min(
          thresholds[t], std::max(0.0, options.initial_thresholds[t]));
    }
  }
  const int subset_cap =
      options.max_subset_size > 0 ? std::min(options.max_subset_size, t_count)
                                  : t_count;

  double best_objective = std::numeric_limits<double>::infinity();
  const ThresholdEvaluation* best_eval = nullptr;
  if (warm_started) {
    // The seed is (near-)optimal already; evaluating it first means shrinks
    // must strictly beat it, where a cold start accepts the best first-round
    // shrink unconditionally.
    ASSIGN_OR_RETURN(best_eval, evaluate(thresholds, kNoCutoff));
    best_objective = best_eval->objective;
  }

  int lh = 1;
  while (lh <= subset_cap) {
    const std::vector<std::vector<int>> combos =
        util::AllCombinations(t_count, lh);
    int progress = 0;
    bool improved = false;
    for (int i = 1; i <= num_ratios; ++i) {
      const double ratio = std::max(0.0, 1.0 - i * options.step_size);
      double round_best = std::numeric_limits<double>::infinity();
      int round_best_combo = -1;
      const ThresholdEvaluation* round_best_eval = nullptr;
      std::vector<double> temp;
      for (size_t j = 0; j < combos.size(); ++j) {
        temp.assign(thresholds.begin(), thresholds.end());
        for (int idx : combos[j]) temp[idx] *= ratio;
        // The first evaluated combo is taken explicitly: round_best starts
        // at +inf, and the tolerance term would turn inf - inf into NaN.
        // A probe bounded at or above the cutoff could neither replace the
        // round's best nor beat the incumbent.
        const double win_by =
            round_best_combo < 0
                ? kNoCutoff
                : round_best - 1e-9 * (1.0 + std::fabs(round_best));
        ASSIGN_OR_RETURN(
            const ThresholdEvaluation* eval,
            evaluate(temp, std::min(win_by, best_objective - 1e-12)));
        if (eval != nullptr && (round_best_combo < 0 ||
                                eval->objective < win_by)) {
          round_best = eval->objective;
          round_best_combo = static_cast<int>(j);
          round_best_eval = eval;
        }
      }
      if (round_best < best_objective - 1e-12) {
        best_objective = round_best;
        best_eval = round_best_eval;
        ++result.stats.improvements;
        for (int idx : combos[static_cast<size_t>(round_best_combo)]) {
          thresholds[idx] *= ratio;
        }
        improved = true;
        break;  // restart the sweep from lh = 1
      }
      progress = i;
    }
    if (improved) {
      lh = 1;
    } else if (progress == num_ratios) {
      ++lh;
    } else {
      // Unreachable with the loop structure above, but mirrors the paper's
      // pseudocode defensively.
      lh = 1;
    }
  }

  if (best_eval == nullptr) {
    // Degenerate epsilon (ratio list empty); evaluate the initial vector.
    ASSIGN_OR_RETURN(best_eval, evaluate(thresholds, kNoCutoff));
    best_objective = best_eval->objective;
  }

  result.objective = best_objective;
  result.thresholds = thresholds;
  EffectiveThresholdsInto(thresholds, instance.audit_costs,
                          options.floor_to_audit_cost,
                          result.effective_thresholds);
  result.policy = best_eval->policy;
  return result;
}

ThresholdEvaluator MakeFullLpEvaluator(const CompiledGame& game,
                                       DetectionModel& detection) {
  return [&game, &detection](const std::vector<double>& thresholds)
             -> util::StatusOr<ThresholdEvaluation> {
    ASSIGN_OR_RETURN(FullLpResult full,
                     SolveFullGameLp(game, detection, thresholds));
    ThresholdEvaluation eval;
    eval.objective = full.objective;
    eval.policy = std::move(full.policy);
    return eval;
  };
}

CggsSweep::CggsSweep(const CompiledGame& game, DetectionModel& detection,
                     CggsOptions options)
    : game_(game), detection_(detection), options_(std::move(options)) {
  // One pricing thread pool for the sweep — ISHM submits hundreds of
  // evaluations per policy, far too many to pay a thread spawn+join each
  // (result-neutral either way; see CggsOptions).
  if (options_.pricing_threads > 1 && options_.pricing_pool == nullptr) {
    owned_pricing_pool_ =
        std::make_unique<util::ThreadPool>(options_.pricing_threads);
    options_.pricing_pool = owned_pricing_pool_.get();
  }
  if (detection_.mode() == DetectionModel::Mode::kExact &&
      game_.num_types <= kMaxBoundTypes) {
    dual_ring_.resize(kDualRing);
  }
}

CggsSweep::~CggsSweep() = default;

util::StatusOr<CggsResult> CggsSweep::Solve(
    const std::vector<double>& thresholds) {
  RETURN_IF_ERROR(detection_.SetThresholds(thresholds));
  // The bound's subset table doubles as the probe's Pal source: Reprice,
  // new columns and pricing all read it through table-backed prefixes.
  if (bounded()) RETURN_IF_ERROR(detection_.RefreshSubsetTable());
  const int cap = 4 * game_.num_types + 8;
  if (master_.has_value() && master_->num_orderings() <= cap) {
    RETURN_IF_ERROR(master_->Reprice());
  } else {
    if (master_.has_value()) ++rebuilds_;
    master_.emplace(game_, detection_, CggsMasterOptions(options_));
    RETURN_IF_ERROR(
        AddSeedOrderings(game_, options_.initial_orderings, *master_));
    RETURN_IF_ERROR(AddSeedOrderings(game_, support_, *master_));
  }
  ASSIGN_OR_RETURN(CggsResult result,
                   SolveCggsOnMaster(game_, detection_, options_, *master_,
                                     solution_));
  support_ = result.policy.orderings;
  if (bounded()) {
    ProjectDualUtility(game_, master_->utility_rows(), solution_.victim_duals,
                       dual_ring_[static_cast<size_t>(ring_next_)]);
    ring_next_ = (ring_next_ + 1) % kDualRing;
    ring_filled_ = std::min(ring_filled_ + 1, kDualRing);
  }
  return result;
}

double CggsSweep::LowerBound(const std::vector<double>& thresholds) {
  if (ring_filled_ == 0 || !detection_.SetThresholds(thresholds).ok() ||
      !detection_.RefreshSubsetTable().ok()) {
    return -std::numeric_limits<double>::infinity();
  }
  return MinOverOrderings(detection_, dual_ring_.data(),
                          static_cast<size_t>(ring_filled_), dp_scratch_);
}

ThresholdEvaluator MakeCggsEvaluator(const CompiledGame& game,
                                     DetectionModel& detection,
                                     CggsOptions options) {
  auto sweep =
      std::make_shared<CggsSweep>(game, detection, std::move(options));
  // A raw pointer keeps the bound a trivially copyable std::function, so
  // copying evaluations never allocates; the evaluator owns the sweep.
  ObjectiveBound lower_bound;
  if (sweep->bounded()) {
    lower_bound = [raw = sweep.get()](const std::vector<double>& thresholds) {
      return raw->LowerBound(thresholds);
    };
  }
  return [sweep, lower_bound](const std::vector<double>& thresholds)
             -> util::StatusOr<ThresholdEvaluation> {
    ASSIGN_OR_RETURN(CggsResult cggs, sweep->Solve(thresholds));
    ThresholdEvaluation eval;
    eval.lower_bound = lower_bound;
    eval.objective = cggs.objective;
    eval.policy = std::move(cggs.policy);
    eval.work.lp_solves = cggs.lp_solves;
    eval.work.warm_lp_solves = cggs.warm_lp_solves;
    eval.work.columns_generated = cggs.columns_generated;
    eval.work.master_lp_iterations = cggs.master_lp_iterations;
    eval.work.cold_retries = cggs.cold_retries;
    eval.work.pricing_seconds = cggs.pricing_seconds;
    return eval;
  };
}

}  // namespace auditgame::core
