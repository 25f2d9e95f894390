// Microbenchmarks for the LP substrate: the bounded-variable revised
// simplex on random feasible LPs of increasing size and on the structured
// game LP.
//
// Two entry points:
//  * Google Benchmark (default): timing curves.
//  * --smoke_json=PATH: a quick self-contained run that writes a
//    BENCH_*.json report (pivots and steady-state allocations per solve,
//    wall time for the archive) — the form CI runs and archives per PR.
//    Agreement with an independent solver is a ctest concern
//    (BackendAgreementTest in tests/revised_simplex_test.cc).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/alloc_count.h"
#include "bench/smoke_common.h"
#include "core/detection.h"
#include "core/game_lp.h"
#include "data/syn_a.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "util/combinatorics.h"
#include "util/json.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

// Random LP with rows constructed around a known feasible point, so every
// instance is feasible and bounded. Variables are doubly bounded, which
// the revised simplex handles without extra rows.
lp::LpModel RandomFeasibleLp(int n, int m, uint64_t seed) {
  util::Rng rng(seed);
  lp::LpModel model;
  std::vector<double> x0(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    x0[static_cast<size_t>(j)] = rng.Uniform(0.0, 5.0);
    model.AddVariable(rng.Uniform(-2.0, 2.0), 0.0, 10.0);
  }
  for (int i = 0; i < m; ++i) {
    double activity = 0.0;
    std::vector<double> coeffs(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      coeffs[static_cast<size_t>(j)] = rng.Uniform(-3.0, 3.0);
      activity += coeffs[static_cast<size_t>(j)] * x0[static_cast<size_t>(j)];
    }
    const int row = model.AddConstraint(lp::Sense::kLessEqual,
                                        activity + rng.Uniform(0.0, 2.0));
    for (int j = 0; j < n; ++j) {
      model.AddCoefficient(row, j, coeffs[static_cast<size_t>(j)]);
    }
  }
  return model;
}

void BM_SimplexRandomLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const lp::LpModel model = RandomFeasibleLp(n, n, 1234);
  for (auto _ : state) {
    auto solution = lp::RevisedSimplex::Solve(model);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(10)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

// The structured restricted game LP on Syn A with all 24 orderings.
void BM_GameLpSynA(benchmark::State& state) {
  const auto instance = data::MakeSynA();
  const auto compiled = core::Compile(*instance);
  auto detection = core::DetectionModel::Create(*instance, 10.0);
  (void)detection->SetThresholds({3.0, 3.0, 3.0, 3.0});
  const auto orderings = util::AllPermutations(4);
  for (auto _ : state) {
    auto solution =
        core::SolveRestrictedGameLp(*compiled, *detection, orderings);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_GameLpSynA);

// ---- Smoke mode ----------------------------------------------------------

struct SolveRun {
  double seconds = 0.0;
  long iterations = 0;
  double allocations_per_solve = 0.0;
};

SolveRun TimeRevised(const lp::LpModel& model, int reps) {
  // The solve draws its working memory from the thread's simplex
  // workspace, as a shard's re-solves do. The measured loop is then the
  // steady state: the warmup solve sizes the workspace, the counted solves
  // reuse it.
  const lp::RevisedSimplex::Options options;
  SolveRun run;
  auto solve_once = [&]() {
    const auto solution = lp::RevisedSimplex::Solve(model, options);
    if (!solution.ok() ||
        solution->solution.status != lp::SolveStatus::kOptimal) {
      std::fprintf(stderr, "revised simplex failed: %s\n",
                   solution.ok()
                       ? lp::SolveStatusToString(solution->solution.status)
                       : solution.status().ToString().c_str());
      std::exit(1);
    }
    run.iterations = solution->solution.phase1_iterations +
                     solution->solution.phase2_iterations;
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
  for (const int n : {20, 50, 100}) {
    const lp::LpModel model = RandomFeasibleLp(n, n, 1234);
    const SolveRun revised = TimeRevised(model, n <= 50 ? 20 : 5);
    util::JsonValue::Object json_case;
    json_case["n"] = n;
    json_case["m"] = n;
    json_case["revised_seconds"] = revised.seconds;
    json_case["revised_iterations"] = static_cast<double>(revised.iterations);
    json_case["revised_allocations_per_solve"] =
        revised.allocations_per_solve;
    std::printf("n=%d revised %.6fs (%ld it, %.0f allocs)\n", n,
                revised.seconds, revised.iterations,
                revised.allocations_per_solve);
    cases.push_back(std::move(json_case));
  }

  util::JsonValue::Object report;
  report["bench"] = "micro_simplex";
  report["mode"] = "smoke";
  report["cases"] = std::move(cases);
  return bench::WriteSmokeReport(json_path, std::move(report));
}

}  // namespace

int main(int argc, char** argv) {
  return auditgame::bench::SmokeOrBenchmarkMain(argc, argv, RunSmoke);
}
