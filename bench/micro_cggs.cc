// Microbenchmark: CGGS (column generation) versus the full LP over all
// |T|! orderings as the number of alert types grows — the scaling argument
// that motivates column generation in the paper (Section III-A).
//
// Two entry points:
//  * Google Benchmark (default): timing curves.
//  * --smoke_json=PATH: a quick run that writes a BENCH_*.json report
//    (master iteration counts, warm-start coverage and steady-state
//    allocations of the incremental master, Syn A objectives), plus the
//    work counters and median time of fixed cold ISHM sweeps over CGGS —
//    the form CI runs and archives per PR.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_count.h"
#include "bench/smoke_common.h"
#include "core/cggs.h"
#include "core/detection.h"
#include "core/game_lp.h"
#include "core/ishm.h"
#include "data/syn_a.h"
#include "prob/count_distribution.h"
#include "scenario/generator.h"
#include "solver/registry.h"
#include "util/json.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

// Synthetic game with `num_types` types and a victim per type.
core::GameInstance MakeScalableGame(int num_types, uint64_t seed) {
  util::Rng rng(seed);
  core::GameInstance instance;
  instance.audit_costs.assign(static_cast<size_t>(num_types), 1.0);
  for (int t = 0; t < num_types; ++t) {
    instance.type_names.push_back("t" + std::to_string(t));
    const double mean = 4.0 + static_cast<double>(rng.UniformInt(6));
    instance.alert_distributions.push_back(
        *prob::CountDistribution::DiscretizedGaussian(
            mean, 1.5, 1, static_cast<int>(mean) + 5));
  }
  for (int e = 0; e < 8; ++e) {
    core::Adversary adversary;
    adversary.attack_probability = 1.0;
    adversary.can_opt_out = true;
    for (int t = 0; t < num_types; ++t) {
      core::VictimProfile victim;
      victim.type_probs.assign(static_cast<size_t>(num_types), 0.0);
      victim.type_probs[static_cast<size_t>(t)] = 1.0;
      victim.benefit = 3.0 + rng.Uniform(0.0, 4.0);
      victim.penalty = 5.0;
      victim.attack_cost = 0.5;
      adversary.victims.push_back(std::move(victim));
    }
    instance.adversaries.push_back(std::move(adversary));
  }
  return instance;
}

std::vector<double> MeanThresholds(const core::GameInstance& instance) {
  std::vector<double> thresholds;
  for (int t = 0; t < instance.num_types(); ++t) {
    thresholds.push_back(std::floor(instance.alert_distributions[t].Mean()));
  }
  return thresholds;
}

void BM_CggsByTypeCount(benchmark::State& state, int pricing_threads) {
  const int num_types = static_cast<int>(state.range(0));
  const core::GameInstance instance = MakeScalableGame(num_types, 7);
  const auto compiled = core::Compile(instance);
  auto detection =
      core::DetectionModel::Create(instance, 2.0 * num_types);
  solver::SolverOptions options;
  options.cggs.pricing_threads = pricing_threads;
  // Pool spawn/join stays outside the timed region so the parallel
  // variant measures pricing, not thread startup.
  std::unique_ptr<util::ThreadPool> pricing_pool;
  if (pricing_threads > 1) {
    pricing_pool = std::make_unique<util::ThreadPool>(pricing_threads);
    options.cggs.pricing_pool = pricing_pool.get();
  }
  auto cggs = solver::Create("cggs", options);
  solver::SolveRequest request;
  request.thresholds = MeanThresholds(instance);
  double objective = 0.0;
  int columns = 0;
  int warm = 0;
  for (auto _ : state) {
    auto result = (*cggs)->Solve(*compiled, *detection, request);
    objective = result->objective;
    columns = result->stats.columns_generated;
    warm = result->stats.warm_lp_solves;
    benchmark::DoNotOptimize(result);
  }
  state.counters["objective"] = objective;
  state.counters["columns"] = columns;
  state.counters["warm_lp_solves"] = warm;
}
BENCHMARK_CAPTURE(BM_CggsByTypeCount, serial, 1)->DenseRange(3, 8);
// Parallel pricing (bit-for-bit identical results; see
// CggsOptions::pricing_threads): the timing delta against serial is pure
// pricing-phase speedup.
BENCHMARK_CAPTURE(BM_CggsByTypeCount, pricing4, 4)->DenseRange(3, 8);

void BM_FullLpByTypeCount(benchmark::State& state) {
  const int num_types = static_cast<int>(state.range(0));
  const core::GameInstance instance = MakeScalableGame(num_types, 7);
  const auto compiled = core::Compile(instance);
  auto detection =
      core::DetectionModel::Create(instance, 2.0 * num_types);
  auto full = solver::Create("full-lp");
  solver::SolveRequest request;
  request.thresholds = MeanThresholds(instance);
  double objective = 0.0;
  for (auto _ : state) {
    auto result = (*full)->Solve(*compiled, *detection, request);
    objective = result->objective;
    benchmark::DoNotOptimize(result);
  }
  // The gap between this objective and BM_CggsByTypeCount's quantifies the
  // cost of approximate pricing.
  state.counters["objective"] = objective;
}
// 8! = 40320 orderings is already minutes of work; stop at 7.
BENCHMARK(BM_FullLpByTypeCount)->DenseRange(3, 6);

// ---- Smoke mode ----------------------------------------------------------

struct CggsRun {
  double seconds = 0.0;
  double objective = 0.0;
  int lp_solves = 0;
  int warm_lp_solves = 0;
  long master_iterations = 0;
  /// Steady-state heap allocations per SolveCggs call — the allocation
  /// gate.
  double allocations_per_solve = 0.0;
};

CggsRun TimeCggs(const core::GameInstance& instance,
                 const core::CompiledGame& compiled, double budget,
                 const std::vector<double>& thresholds, int reps) {
  CggsRun run;
  auto detection = core::DetectionModel::Create(instance, budget);
  if (!detection.ok()) {
    std::fprintf(stderr, "DetectionModel::Create failed: %s\n",
                 detection.status().ToString().c_str());
    std::exit(1);
  }
  const core::CggsOptions options;
  // The first solve sizes the thread's simplex workspace, as a serving
  // loop's first solve does — warm up before counting so the reported
  // number is the steady state.
  auto solve_once = [&]() {
    auto result = core::SolveCggs(compiled, *detection, thresholds, options);
    if (!result.ok()) {
      std::fprintf(stderr, "SolveCggs failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    run.objective = result->objective;
    run.lp_solves = result->lp_solves;
    run.warm_lp_solves = result->warm_lp_solves;
    run.master_iterations = result->master_lp_iterations;
  };
  solve_once();  // warmup, untimed and uncounted
  const uint64_t alloc_before = bench::HeapAllocationCount();
  util::Timer timer;
  for (int r = 0; r < reps; ++r) solve_once();
  run.seconds = timer.ElapsedSeconds() / reps;
  run.allocations_per_solve =
      static_cast<double>(bench::HeapAllocationCount() - alloc_before) / reps;
  return run;
}

int RunSmoke(const std::string& json_path) {
  util::JsonValue::Array cases;

  // Scaling cases: synthetic games of growing type count.
  for (const int types : {5, 6, 7}) {
    const core::GameInstance instance = MakeScalableGame(types, 7);
    const auto compiled = core::Compile(instance);
    const std::vector<double> thresholds = MeanThresholds(instance);
    const double budget = 2.0 * types;
    const int reps = types <= 6 ? 10 : 5;
    const CggsRun incremental =
        TimeCggs(instance, *compiled, budget, thresholds, reps);
    util::JsonValue::Object json_case;
    json_case["game"] = "scalable";
    json_case["types"] = types;
    json_case["incremental_seconds"] = incremental.seconds;
    json_case["incremental_master_iterations"] =
        static_cast<double>(incremental.master_iterations);
    json_case["incremental_warm_lp_solves"] = incremental.warm_lp_solves;
    json_case["incremental_lp_solves"] = incremental.lp_solves;
    json_case["incremental_allocations_per_solve"] =
        incremental.allocations_per_solve;
    std::printf("types=%d %.4fs (iterations %ld, warm %d/%d, "
                "%.0f allocs/solve)\n",
                types, incremental.seconds, incremental.master_iterations,
                incremental.warm_lp_solves, incremental.lp_solves,
                incremental.allocations_per_solve);
    cases.push_back(std::move(json_case));
  }

  // Syn A objectives: context for the archive (agreement with the full LP
  // is CggsTest.MatchesFullLpOnSynA in ctest).
  const auto syn_a = data::MakeSynA();
  const auto syn_a_compiled = core::Compile(*syn_a);
  for (const double budget : {4.0, 10.0}) {
    const std::vector<double> thresholds = {3.0, 3.0, 2.0, 2.0};
    const CggsRun incremental =
        TimeCggs(*syn_a, *syn_a_compiled, budget, thresholds, 3);
    util::JsonValue::Object json_case;
    json_case["game"] = "syn_a";
    json_case["budget"] = budget;
    json_case["incremental_objective"] = incremental.objective;
    std::printf("syn_a budget=%.0f obj %.9f\n", budget,
                incremental.objective);
    cases.push_back(std::move(json_case));
  }

  // Cold ishm-cggs sweeps as the server runs them (eps 0.25): one master
  // LP re-priced across every probe from one incrementally refreshed subset
  // table, and probes the weak-duality bound rules out never solved. The
  // uniform scenario at 5 types is the served path; the catalog's zipf at
  // 8 and 10 types is past kMaxBoundTypes, where nothing is pruned. Master
  // solves, warm resumes and pivots per sweep are deterministic, so CI
  // gates them; losing the master reuse or the pruning shows up here first.
  util::JsonValue::Array sweeps;
  // Every sweep starts from a fresh detection model, as a server's cold
  // solve does; the timed repeats report the median (ungated context).
  constexpr int kSweepRepeats = 9;
  struct SweepGame {
    const char* scenario;
    int types;
  };
  for (const SweepGame& game : {SweepGame{"uniform", 5}, SweepGame{"zipf", 8},
                                SweepGame{"zipf", 10}}) {
    auto spec = scenario::SpecByName(game.scenario);
    spec->num_types = game.types;
    const auto instance = scenario::Generate(*spec);
    const auto compiled = core::Compile(*instance);
    for (const double budget : {6.0, 10.0}) {
      core::IshmOptions ishm_options;
      ishm_options.step_size = 0.25;
      auto cold_sweep = [&](core::DetectionModel& detection) {
        auto ishm = core::SolveIshm(
            *instance, core::MakeCggsEvaluator(*compiled, detection),
            ishm_options);
        if (!ishm.ok()) {
          std::fprintf(stderr, "ishm-cggs sweep failed: %s\n",
                       ishm.status().ToString().c_str());
          std::exit(1);
        }
        return ishm;
      };
      auto detection = core::DetectionModel::Create(*instance, budget);
      const auto ishm = cold_sweep(*detection);
      std::vector<double> sweep_seconds;
      for (int r = 0; r < kSweepRepeats; ++r) {
        auto fresh = core::DetectionModel::Create(*instance, budget);
        util::Timer timer;
        cold_sweep(*fresh);
        sweep_seconds.push_back(timer.ElapsedSeconds());
      }
      std::sort(sweep_seconds.begin(), sweep_seconds.end());
      const core::CggsWork& work = ishm->stats.cggs;
      util::JsonValue::Object sweep;
      sweep["scenario"] = game.scenario;
      sweep["types"] = game.types;
      sweep["budget"] = budget;
      // Rows of the master LP: the groups' victim envelopes (context only).
      sweep["victim_rows"] = compiled->num_envelope_rows();
      sweep["probes"] = static_cast<double>(ishm->stats.distinct_evaluations);
      sweep["pruned"] = static_cast<double>(ishm->stats.pruned);
      sweep["cold_retries"] = work.cold_retries;
      // Detection-table work (context only): subset-table refreshes that
      // recomputed anything, and per-type tables the memo had to tabulate.
      sweep["table_refreshes"] =
          static_cast<double>(detection->stats().table_refreshes);
      sweep["types_retabulated"] =
          static_cast<double>(detection->stats().types_retabulated);
      sweep["ishm_lp_solves"] = work.lp_solves;
      sweep["ishm_warm_lp_solves"] = work.warm_lp_solves;
      sweep["ishm_master_iterations"] =
          static_cast<double>(work.master_lp_iterations);
      sweep["ishm_objective"] = ishm->objective;
      sweep["ishm_sweep_seconds"] = sweep_seconds[kSweepRepeats / 2];
      std::printf("ishm-cggs sweep %s T=%d budget=%.0f probes %lld pruned "
                  "%lld lp_solves %d (warm %d, cold retries %d) pivots %ld "
                  "table refreshes %lld retabulated %lld obj %.9f "
                  "%.0f us/sweep\n",
                  game.scenario, game.types, budget,
                  static_cast<long long>(ishm->stats.distinct_evaluations),
                  static_cast<long long>(ishm->stats.pruned), work.lp_solves,
                  work.warm_lp_solves, work.cold_retries,
                  work.master_lp_iterations,
                  static_cast<long long>(detection->stats().table_refreshes),
                  static_cast<long long>(detection->stats().types_retabulated),
                  ishm->objective, 1e6 * sweep_seconds[kSweepRepeats / 2]);
      sweeps.push_back(std::move(sweep));
    }
  }

  // Pricing quality: how far CGGS's heuristic pricing stops above the
  // exact LP over all 5! orderings, on uniform 5-type games (seeds 1-20,
  // budgets 6/10) at fixed thresholds — each type's full-coverage bound
  // C_t * max(F_t) times 0.25 and 0.5, floored to whole audits. The
  // relative gap is >= 0 by construction and independent of the ISHM
  // path, so CI gates it; the mean cold ishm-cggs objective over the same
  // games is context.
  double gap_total = 0.0;
  double ishm_total = 0.0;
  int gap_count = 0;
  int ishm_count = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto spec = scenario::SpecByName("uniform");
    spec->num_types = 5;
    spec->seed = seed;
    const auto game = scenario::Generate(*spec);
    const auto compiled = core::Compile(*game);
    for (const double budget : {6.0, 10.0}) {
      auto detection = core::DetectionModel::Create(*game, budget);
      for (const double fraction : {0.25, 0.5}) {
        std::vector<double> thresholds;
        for (int t = 0; t < game->num_types(); ++t) {
          const double cost = game->audit_costs[static_cast<size_t>(t)];
          thresholds.push_back(
              std::floor(fraction *
                         game->alert_distributions[static_cast<size_t>(t)]
                             .max_value()) *
              cost);
        }
        const auto cggs = core::SolveCggs(*compiled, *detection, thresholds);
        const auto full =
            core::SolveFullGameLp(*compiled, *detection, thresholds);
        if (!cggs.ok() || !full.ok()) {
          std::fprintf(stderr, "pricing-quality solve failed (seed %llu)\n",
                       static_cast<unsigned long long>(seed));
          std::exit(1);
        }
        gap_total += (cggs->objective - full->objective) /
                     std::max(std::abs(full->objective), 1e-12);
        ++gap_count;
      }
      core::IshmOptions ishm_options;
      ishm_options.step_size = 0.25;
      const auto ishm = core::SolveIshm(
          *game, core::MakeCggsEvaluator(*compiled, *detection),
          ishm_options);
      if (!ishm.ok()) {
        std::fprintf(stderr, "pricing-quality sweep failed (seed %llu)\n",
                     static_cast<unsigned long long>(seed));
        std::exit(1);
      }
      ishm_total += ishm->objective;
      ++ishm_count;
    }
  }
  util::JsonValue::Object quality;
  quality["games"] = ishm_count;
  quality["cggs_gap_to_lp_mean"] = gap_total / gap_count;
  quality["ishm_cggs_objective_mean"] = ishm_total / ishm_count;
  std::printf("pricing quality: cggs gap to lp mean %.3e over %d solves, "
              "ishm-cggs objective mean %.9f\n",
              gap_total / gap_count, gap_count, ishm_total / ishm_count);

  util::JsonValue::Object report;
  report["bench"] = "micro_cggs";
  report["mode"] = "smoke";
  report["cases"] = std::move(cases);
  report["ishm_sweeps"] = std::move(sweeps);
  report["pricing_quality"] = std::move(quality);
  return bench::WriteSmokeReport(json_path, std::move(report));
}

}  // namespace

int main(int argc, char** argv) {
  return auditgame::bench::SmokeOrBenchmarkMain(argc, argv, RunSmoke);
}
