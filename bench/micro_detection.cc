// Microbenchmarks for the detection-probability estimators: exact
// (prefix-convolution) vs Monte Carlo across instance sizes, plus the
// incremental prefix operations CGGS relies on.
//
// Two entry points:
//  * Google Benchmark (default): timing curves.
//  * --smoke_json=PATH: runs the detection hot path (the Into-style calls
//    CGGS prices with) and writes a BENCH_*.json report —
//    allocations-per-solve in steady state (the allocation gate) and
//    timings for the archive.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/alloc_count.h"
#include "bench/smoke_common.h"
#include "core/detection.h"
#include "data/credit.h"
#include "data/emr.h"
#include "data/syn_a.h"
#include "util/json.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

const core::GameInstance& EmrInstance() {
  static const core::GameInstance* const kInstance = [] {
    auto instance = data::MakeEmrGame();
    return new core::GameInstance(*instance);
  }();
  return *kInstance;
}

std::vector<double> HalfMeanThresholds(const core::GameInstance& instance) {
  std::vector<double> thresholds;
  for (int t = 0; t < instance.num_types(); ++t) {
    thresholds.push_back(
        std::floor(instance.alert_distributions[t].Mean() / 2));
  }
  return thresholds;
}

std::vector<int> IdentityOrdering(int n) {
  std::vector<int> o(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) o[static_cast<size_t>(i)] = i;
  return o;
}

void BM_ExactPalEmr(benchmark::State& state) {
  const auto& instance = EmrInstance();
  const double budget = static_cast<double>(state.range(0));
  auto model = core::DetectionModel::Create(instance, budget);
  (void)model->SetThresholds(HalfMeanThresholds(instance));
  const auto ordering = IdentityOrdering(instance.num_types());
  for (auto _ : state) {
    auto pal = model->DetectionProbabilities(ordering);
    benchmark::DoNotOptimize(pal);
  }
}
BENCHMARK(BM_ExactPalEmr)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_MonteCarloPalEmr(benchmark::State& state) {
  const auto& instance = EmrInstance();
  core::DetectionModel::Options options;
  options.mode = core::DetectionModel::Mode::kMonteCarlo;
  options.mc_samples = static_cast<int>(state.range(0));
  auto model = core::DetectionModel::Create(instance, 100.0, options);
  (void)model->SetThresholds(HalfMeanThresholds(instance));
  const auto ordering = IdentityOrdering(instance.num_types());
  for (auto _ : state) {
    auto pal = model->DetectionProbabilities(ordering);
    benchmark::DoNotOptimize(pal);
  }
}
BENCHMARK(BM_MonteCarloPalEmr)->Arg(500)->Arg(2000)->Arg(10000);

void BM_SetThresholdsEmr(benchmark::State& state) {
  const auto& instance = EmrInstance();
  auto model = core::DetectionModel::Create(instance, 100.0);
  const auto thresholds = HalfMeanThresholds(instance);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->SetThresholds(thresholds));
  }
}
BENCHMARK(BM_SetThresholdsEmr);

void BM_PrefixExtendAndQuery(benchmark::State& state) {
  const auto& instance = EmrInstance();
  auto model = core::DetectionModel::Create(instance, 100.0);
  (void)model->SetThresholds(HalfMeanThresholds(instance));
  for (auto _ : state) {
    core::DetectionModel::Prefix prefix = model->EmptyPrefix();
    double total = 0.0;
    for (int t = 0; t < instance.num_types(); ++t) {
      total += model->PalGivenPrefix(prefix, t);
      model->ExtendPrefix(prefix, t);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PrefixExtendAndQuery);

// Accuracy study (reported as a counter): max |exact - MC| over types.
void BM_MonteCarloError(benchmark::State& state) {
  const auto& instance = EmrInstance();
  auto exact = core::DetectionModel::Create(instance, 100.0);
  (void)exact->SetThresholds(HalfMeanThresholds(instance));
  core::DetectionModel::Options options;
  options.mode = core::DetectionModel::Mode::kMonteCarlo;
  options.mc_samples = static_cast<int>(state.range(0));
  auto mc = core::DetectionModel::Create(instance, 100.0, options);
  (void)mc->SetThresholds(HalfMeanThresholds(instance));
  const auto ordering = IdentityOrdering(instance.num_types());
  double max_error = 0.0;
  for (auto _ : state) {
    const auto pal_exact = exact->DetectionProbabilities(ordering);
    const auto pal_mc = mc->DetectionProbabilities(ordering);
    for (int t = 0; t < instance.num_types(); ++t) {
      max_error = std::max(max_error,
                           std::fabs((*pal_exact)[t] - (*pal_mc)[t]));
    }
  }
  state.counters["max_abs_error"] = max_error;
}
BENCHMARK(BM_MonteCarloError)->Arg(500)->Arg(2000)->Arg(10000);

// ---- Smoke mode ----------------------------------------------------------

struct DetectionRun {
  double seconds = 0.0;
  double allocations_per_solve = 0.0;
};

// One "solve" is the steady-state pricing unit: a full detection-
// probability sweep over an ordering through the caller-scratch API
// (DetectionProbabilitiesInto), exactly how CGGS evaluates candidates.
DetectionRun RunDetection(core::DetectionModel& model, int t_count,
                          int reps) {
  DetectionRun run;
  const auto ordering = IdentityOrdering(t_count);
  core::DetectionModel::Prefix prefix = model.EmptyPrefix();
  std::vector<double> pal;
  // Warm up so every buffer reaches steady-state capacity before counting.
  for (int r = 0; r < 3; ++r) {
    (void)model.DetectionProbabilitiesInto(ordering, prefix, pal);
  }
  const uint64_t alloc_before = bench::HeapAllocationCount();
  util::Timer timer;
  for (int r = 0; r < reps; ++r) {
    const util::Status status =
        model.DetectionProbabilitiesInto(ordering, prefix, pal);
    if (!status.ok()) {
      std::fprintf(stderr, "DetectionProbabilitiesInto failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  run.seconds = timer.ElapsedSeconds() / reps;
  run.allocations_per_solve =
      static_cast<double>(bench::HeapAllocationCount() - alloc_before) / reps;
  return run;
}

int RunSmoke(const std::string& json_path) {
  util::JsonValue::Array cases;

  struct Case {
    const char* mode;
    core::DetectionModel::Mode model_mode;
    int mc_samples;
    int reps;
  };
  const Case kCases[] = {
      {"exact", core::DetectionModel::Mode::kExact, 0, 400},
      {"monte_carlo", core::DetectionModel::Mode::kMonteCarlo, 2000, 400},
  };

  const auto& instance = EmrInstance();
  const auto thresholds = HalfMeanThresholds(instance);
  for (const Case& c : kCases) {
    core::DetectionModel::Options options;
    options.mode = c.model_mode;
    if (c.mc_samples > 0) options.mc_samples = c.mc_samples;
    auto model = core::DetectionModel::Create(instance, 100.0, options);
    if (!model.ok() || !model->SetThresholds(thresholds).ok()) {
      std::fprintf(stderr, "detection model setup failed (%s)\n", c.mode);
      return 1;
    }

    const DetectionRun run = RunDetection(*model, instance.num_types(), c.reps);
    util::JsonValue::Object json_case;
    json_case["game"] = "emr";
    json_case["mode"] = c.mode;
    json_case["scalar_seconds"] = run.seconds;
    json_case["allocations_per_solve"] = run.allocations_per_solve;
    std::printf("%s %.6fs allocs/solve %.2f\n", c.mode, run.seconds,
                run.allocations_per_solve);
    cases.push_back(std::move(json_case));
  }

  util::JsonValue::Object report;
  report["bench"] = "micro_detection";
  report["mode"] = "smoke";
  report["cases"] = std::move(cases);
  return bench::WriteSmokeReport(json_path, std::move(report));
}

}  // namespace

int main(int argc, char** argv) {
  return auditgame::bench::SmokeOrBenchmarkMain(argc, argv, RunSmoke);
}
