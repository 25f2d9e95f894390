// scenario_suite: the generated-workload perf gate. For each scenario
// family (bench-scale variants of the src/scenario catalog) it solves the
// fixed-threshold game with CGGS under exact and Monte-Carlo detection,
// runs the closed-loop Stackelberg adversary drill, and writes
// BENCH_scenario.json with the pricing-phase and total-solve timings and
// the drill's gap metrics. CI runs it in the bench smoke step and archives
// the report; a drill that falls behind the exact floor exits with the
// dedicated smoke code.
//
//   scenario_suite --json=BENCH_scenario.json --reps=3
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adversary/attacker.h"
#include "adversary/loop.h"
#include "bench/exit_codes.h"
#include "core/cggs.h"
#include "core/detection.h"
#include "core/game.h"
#include "scenario/generator.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

// Bench-scale variants of the catalog families: enough types and utility
// rows that a pricing round has real work to time (the catalog presets
// are sized for tests and replay, not for timing).
std::vector<scenario::NamedScenario> SuiteScenarios() {
  std::vector<scenario::NamedScenario> suite;
  for (const scenario::NamedScenario& preset : scenario::Catalog()) {
    if (preset.name == "zipf-deep") continue;  // shape duplicate of zipf
    scenario::NamedScenario scaled = preset;
    scaled.spec.num_types = std::max(preset.spec.num_types, 18);
    scaled.spec.num_adversaries = 12;
    scaled.spec.victims_per_adversary = 30;
    suite.push_back(std::move(scaled));
  }
  return suite;
}

std::vector<double> FlooredMeanThresholds(const core::GameInstance& instance) {
  std::vector<double> thresholds;
  for (int t = 0; t < instance.num_types(); ++t) {
    thresholds.push_back(std::floor(instance.alert_distributions[t].Mean()));
  }
  return thresholds;
}

/// The closed-loop Stackelberg drill: a best-responding attacker against
/// the drift-gated serving loop at catalog scale, with an exact re-solve
/// as the per-cycle oracle. Everything numeric in the result is a
/// deterministic function of the catalog spec (serial solves, seeded
/// attacker), so regret/exploitability gaps and the within-2x bit are
/// machine-independent and CI gates them via bench_compare --require.
util::StatusOr<util::JsonValue::Object> RunAdversaryDrill(int cycles) {
  ASSIGN_OR_RETURN(const scenario::ScenarioSpec spec,
                   scenario::SpecByName("zipf"));
  ASSIGN_OR_RETURN(core::GameInstance instance, scenario::Generate(spec));

  adversary::DefenderConfig config;
  config.budget = 10.0;
  config.solver_options.ishm.step_size = 0.25;
  config.warm_start_max_drift = 0.25;

  ASSIGN_OR_RETURN(adversary::AttackerEconomics economics,
                   adversary::DeriveEconomics(instance));
  adversary::AttackerSpec attacker_spec;
  attacker_spec.kind = adversary::AttackerKind::kBestResponse;
  attacker_spec.attack_rate = 0.6;
  ASSIGN_OR_RETURN(std::unique_ptr<adversary::Attacker> attacker,
                   adversary::MakeAttacker(attacker_spec,
                                           instance.alert_distributions,
                                           std::move(economics)));
  adversary::InProcessDefender defender(instance, config);
  ASSIGN_OR_RETURN(adversary::AdversaryLoop loop,
                   adversary::AdversaryLoop::Create(std::move(instance),
                                                    config, &defender,
                                                    attacker.get()));
  adversary::LoopSpec loop_spec;
  loop_spec.cycles = cycles;
  util::Timer timer;
  ASSIGN_OR_RETURN(const adversary::LoopReport report, loop.Run(loop_spec));

  util::JsonValue::Object obj;
  obj["scenario"] = "zipf";
  obj["attacker"] = "best-response";
  obj["cycles"] = cycles;
  obj["cycles_completed"] = static_cast<int>(report.cycles.size());
  obj["cache_hits"] = static_cast<double>(report.cache_hits);
  obj["warm_solves"] = static_cast<double>(report.warm_solves);
  obj["cold_solves"] = static_cast<double>(report.cold_solves);
  const double served =
      static_cast<double>(report.cache_hits + report.warm_solves +
                          report.cold_solves);
  obj["cache_hit_ratio"] =
      served > 0.0 ? static_cast<double>(report.cache_hits) / served : 0.0;
  obj["regret_gap_mean"] = report.regret_gap_mean;
  obj["regret_gap_max"] = report.regret_gap_max;
  obj["exploitability_gap_mean"] = report.exploitability_gap_mean;
  obj["exploitability_gap_max"] = report.exploitability_gap_max;
  obj["tracking_lag_max_cycles"] = report.tracking_lag_max_cycles;
  obj["tracking_within_2x"] = report.tracking_within_2x;
  obj["oracle_loss_mean"] = report.oracle_loss_mean;
  obj["loop_seconds"] = timer.ElapsedSeconds();
  return obj;
}

struct PricingRun {
  core::CggsResult result;
  /// Min over reps — the stable estimate for short runs.
  double pricing_seconds = 0.0;
  double total_seconds = 0.0;
};

util::StatusOr<PricingRun> TimePricing(const core::CompiledGame& compiled,
                                       core::DetectionModel& detection,
                                       const std::vector<double>& thresholds,
                                       int reps) {
  const core::CggsOptions options;
  PricingRun run;
  run.pricing_seconds = std::numeric_limits<double>::infinity();
  run.total_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    ASSIGN_OR_RETURN(core::CggsResult result,
                     core::SolveCggs(compiled, detection, thresholds, options));
    run.total_seconds = std::min(run.total_seconds, timer.ElapsedSeconds());
    run.pricing_seconds = std::min(run.pricing_seconds, result.pricing_seconds);
    run.result = std::move(result);
  }
  return run;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("json", "BENCH_scenario.json", "report path");
  flags.Define("reps", "3", "solves per configuration (min time is kept)");
  flags.Define("mc_samples", "30000",
               "Monte-Carlo detection samples for the heavy-pricing cases");
  flags.Define("adversary_cycles", "12",
               "closed-loop cycles of the Stackelberg adversary drill");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.HelpString(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpString(argv[0]).c_str());
    return 0;
  }
  // Out-of-range counts are refused, not clamped into a different run.
  const util::StatusOr<int> reps_flag = flags.GetIntAtLeast("reps", 1);
  const util::StatusOr<int> mc_samples_flag =
      flags.GetIntAtLeast("mc_samples", 1000);
  for (const util::Status& parsed :
       {reps_flag.status(), mc_samples_flag.status()}) {
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
      return 1;
    }
  }
  const int reps = *reps_flag;
  const int mc_samples = *mc_samples_flag;

  util::JsonValue::Array cases;
  for (const scenario::NamedScenario& entry : SuiteScenarios()) {
    auto instance = scenario::Generate(entry.spec);
    if (!instance.ok()) {
      std::fprintf(stderr, "generate %s: %s\n", entry.name.c_str(),
                   instance.status().ToString().c_str());
      return 1;
    }
    const auto compiled = core::Compile(*instance);
    if (!compiled.ok()) {
      std::fprintf(stderr, "compile %s: %s\n", entry.name.c_str(),
                   compiled.status().ToString().c_str());
      return 1;
    }
    const double budget = 1.5 * entry.spec.num_types;
    const std::vector<double> thresholds = FlooredMeanThresholds(*instance);

    // Two detection regimes per family. kExact prices a candidate in
    // O(grid), so pricing is light. kMonteCarlo (the paper's estimator)
    // prices in O(mc_samples) per candidate.
    for (const bool monte_carlo : {false, true}) {
      core::DetectionModel::Options detection_options;
      if (monte_carlo) {
        detection_options.mode = core::DetectionModel::Mode::kMonteCarlo;
        detection_options.mc_samples = mc_samples;
      }
      auto detection =
          core::DetectionModel::Create(*instance, budget, detection_options);
      if (!detection.ok()) {
        std::fprintf(stderr, "detection %s: %s\n", entry.name.c_str(),
                     detection.status().ToString().c_str());
        return 1;
      }

      auto serial = TimePricing(*compiled, *detection, thresholds, reps);
      if (!serial.ok()) {
        std::fprintf(stderr, "solve %s: %s\n", entry.name.c_str(),
                     serial.status().ToString().c_str());
        return 1;
      }

      util::JsonValue::Object json_case;
      json_case["scenario"] = entry.name;
      json_case["detection"] = monte_carlo ? "mc" : "exact";
      json_case["types"] = entry.spec.num_types;
      json_case["utility_rows"] = compiled->num_rows();
      json_case["budget"] = budget;
      json_case["columns_generated"] = serial->result.columns_generated;
      json_case["objective"] = serial->result.objective;
      json_case["serial_pricing_seconds"] = serial->pricing_seconds;
      json_case["serial_total_seconds"] = serial->total_seconds;
      std::printf("%-10s (%5s) types=%d rows=%d cols=%d pricing %.4fs "
                  "total %.4fs\n",
                  entry.name.c_str(), monte_carlo ? "mc" : "exact",
                  entry.spec.num_types, compiled->num_rows(),
                  serial->result.columns_generated, serial->pricing_seconds,
                  serial->total_seconds);
      cases.push_back(std::move(json_case));
    }
  }

  auto adversary_drill = RunAdversaryDrill(flags.GetInt("adversary_cycles"));
  if (!adversary_drill.ok()) {
    std::fprintf(stderr, "adversary drill: %s\n",
                 adversary_drill.status().ToString().c_str());
    return 1;
  }
  const util::JsonValue* within =
      [&]() -> const util::JsonValue* {
    const auto it = adversary_drill->find("tracking_within_2x");
    return it == adversary_drill->end() ? nullptr : &it->second;
  }();
  const bool tracking_ok = within != nullptr && within->as_bool();
  std::printf(
      "adversary  (zipf ) best-response loop: tracking within 2x of exact "
      "floor: %s\n",
      tracking_ok ? "yes" : "NO");

  util::JsonValue::Object report;
  report["bench"] = "scenario_suite";
  report["mode"] = "smoke";
  report["hardware_threads"] =
      static_cast<int>(std::thread::hardware_concurrency());
  report["cases"] = std::move(cases);
  report["adversary"] = util::JsonValue(std::move(*adversary_drill));

  const std::string json_path = flags.GetString("json");
  std::ofstream out(json_path);
  int write_status = bench::kSmokeExitOk;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    write_status = bench::kSmokeExitIoError;
  } else {
    out << util::JsonValue(std::move(report)).Dump(2) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  // The adversary drill's within-2x bit outranks a report-write failure: a
  // warm re-solve falling behind the exact floor is a correctness
  // regression CI must not mistake for an infrastructure problem.
  if (!tracking_ok) return bench::kSmokeExitDisagreement;
  return write_status;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
