// workload_replay: streams generated scenario workloads through the
// serving layer end to end. Picks a game family from the scenario catalog
// (or a custom spec via flags, or a game JSON file via --game), builds a
// drifting multi-cycle alert stream (jitter / random-walk / seasonal),
// replays it through service::AuditService across a budget sweep, and
// reports the cache-hit / warm-solve / cold-solve split plus per-cycle
// latency percentiles — the serving-side view of what a scenario costs.
//
// SIGINT/SIGTERM interrupt the replay gracefully: the current cycle
// finishes, the summary and (if requested) the JSON report are still
// written with `interrupted: true` and the cycles actually completed.
//
//   workload_replay --scenario=zipf --stream=walk --cycles=40 --drift=0.08
//   workload_replay --scenario=correlated --budget_lo=6 --budget_hi=18
//       --budget_steps=4 --pricing_threads=4 --json=replay.json
//   workload_replay --game=game.json --cycles=50 --budget_steps=1
#include <signal.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/exit_codes.h"
#include "core/game_io.h"
#include "prob/count_distribution.h"
#include "scenario/generator.h"
#include "scenario/stream.h"
#include "server/protocol.h"
#include "service/audit_service.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/percentile.h"

namespace {

using namespace auditgame;  // NOLINT
using server::SourceName;

volatile sig_atomic_t g_interrupted = 0;

void HandleStopSignal(int /*signum*/) { g_interrupted = 1; }

int Run(int argc, char** argv) {
  util::FlagParser flags;
  scenario::DefineScenarioFlags(flags, /*default_scenario=*/"zipf",
                                /*default_types=*/"0");
  flags.Define("game", "",
               "game instance JSON replayed instead of the scenario catalog "
               "(e.g. from export_game)");
  flags.Define("stream", "jitter",
               "alert-stream evolution: jitter, walk, seasonal");
  flags.Define("cycles", "30", "audit cycles to replay");
  flags.Define("drift", "0.05", "per-cycle drift amplitude");
  flags.Define("revisit", "5",
               "every k-th cycle replays the baseline exactly (0 = never)");
  flags.Define("season", "7", "cycles per seasonal oscillation");
  flags.Define("stream_seed", "1", "stream RNG seed");
  flags.Define("budget_lo", "8", "budget sweep start");
  flags.Define("budget_hi", "16", "budget sweep end");
  flags.Define("budget_steps", "2", "budgets served per cycle");
  flags.Define("eps", "0.25", "ISHM step size");
  flags.Define("warm_max_drift", "0.25",
               "drift threshold above which re-solves are cold");
  flags.Define("pricing_threads", "1",
               "CGGS pricing threads per solve (results are bit-for-bit "
               "identical for any value)");
  flags.Define("json", "", "machine-readable summary path (empty = none)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  // Out-of-range counts are refused, not clamped into a different run.
  auto cycles = flags.GetIntAtLeast("cycles", 1);
  auto revisit = flags.GetIntAtLeast("revisit", 0);
  auto season = flags.GetIntAtLeast("season", 1);
  for (const util::Status& parsed :
       {cycles.status(), revisit.status(), season.status()}) {
    if (!parsed.ok()) {
      std::cerr << parsed << "\n";
      return 1;
    }
  }

  const std::string game_path = flags.GetString("game");
  util::StatusOr<core::GameInstance> instance = [&]() {
    if (game_path.empty()) {
      auto spec = scenario::SpecFromFlags(flags);
      if (!spec.ok()) return util::StatusOr<core::GameInstance>(spec.status());
      return scenario::Generate(*spec);
    }
    std::ifstream in(game_path);
    if (!in) {
      return util::StatusOr<core::GameInstance>(
          util::NotFoundError("cannot open " + game_path));
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    return core::ParseGame(buffer.str());
  }();
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }

  auto stream_kind = scenario::StreamKindFromName(flags.GetString("stream"));
  if (!stream_kind.ok()) {
    std::cerr << stream_kind.status() << "\n";
    return 1;
  }
  scenario::StreamSpec stream_spec;
  stream_spec.kind = *stream_kind;
  stream_spec.drift_amplitude = flags.GetDouble("drift");
  stream_spec.revisit_period = *revisit;
  stream_spec.season_period = *season;
  stream_spec.seed = static_cast<uint64_t>(flags.GetInt("stream_seed"));
  scenario::ScenarioStream stream(instance->alert_distributions, stream_spec);

  service::AuditServiceOptions options;
  options.budgets =
      scenario::BudgetSweep(flags.GetDouble("budget_lo"),
                            flags.GetDouble("budget_hi"),
                            flags.GetInt("budget_steps"));
  if (options.budgets.empty()) {
    std::cerr << "--budget_steps must be >= 1\n";
    return 1;
  }
  options.solver_options.ishm.step_size = flags.GetDouble("eps");
  options.solver_options.cggs.pricing_threads = flags.GetInt("pricing_threads");
  options.warm_start_max_drift = flags.GetDouble("warm_max_drift");
  service::AuditService service(std::move(*instance), options);

  struct sigaction action;
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  // SA_RESTART: the flag is checked between cycles, and an interrupted
  // stdout write would otherwise fail with EINTR and silently truncate
  // the CSV this tool promises to finish.
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  int cycles_completed = 0;
  util::CsvWriter csv(std::cout);
  csv.WriteRow({"cycle", "budget", "source", "drift", "objective",
                "observed_drift", "cycle_seconds"});
  std::vector<double> cycle_seconds;
  // Cycle-over-cycle drift of the stream itself (max-over-types total
  // variation distance vs the previous cycle), independent of the warm-start
  // baseline the per-policy drift column measures against — so adversarial
  // mass-shifts and statistical drift are visible in one report.
  std::vector<prob::CountDistribution> previous_dists;
  std::vector<double> observed_drifts;
  for (int cycle = 1; cycle <= *cycles && !g_interrupted; ++cycle) {
    auto dists = stream.Next();
    if (!dists.ok()) {
      std::cerr << "cycle " << cycle << ": " << dists.status() << "\n";
      return 1;
    }
    const double observed_drift =
        cycle == 1 ? 0.0
                   : service::AuditService::MeasureDrift(previous_dists,
                                                         *dists);
    if (cycle > 1) observed_drifts.push_back(observed_drift);
    previous_dists = *dists;
    if (util::Status update =
            service.UpdateAlertDistributions(std::move(*dists));
        !update.ok()) {
      std::cerr << "cycle " << cycle << ": " << update << "\n";
      return 1;
    }
    auto report = service.RunCycle();
    if (!report.ok()) {
      std::cerr << "cycle " << cycle << ": " << report.status() << "\n";
      return 1;
    }
    cycle_seconds.push_back(report->seconds);
    ++cycles_completed;
    for (const auto& policy : report->policies) {
      csv.WriteRow({std::to_string(cycle),
                    util::CsvWriter::FormatDouble(policy.budget),
                    SourceName(policy.source),
                    util::CsvWriter::FormatDouble(policy.drift),
                    util::CsvWriter::FormatDouble(policy.result.objective),
                    util::CsvWriter::FormatDouble(observed_drift),
                    util::CsvWriter::FormatDouble(report->seconds)});
    }
  }

  const util::Percentiles latency = util::Summarize(std::move(cycle_seconds));
  const util::Percentiles drift = util::Summarize(std::move(observed_drifts));
  // The split and wall time come from the service's own counters —
  // the same numbers the audit server's `stats` verb serves.
  const service::AuditService::Stats stats = service.stats();
  if (g_interrupted) {
    std::cerr << "interrupted after " << cycles_completed << "/" << *cycles
              << " cycles; writing partial report\n";
  }
  std::cerr << (game_path.empty() ? "scenario " + flags.GetString("scenario")
                                  : "game " + game_path)
            << ": "
            << cycles_completed << " cycles x " << options.budgets.size()
            << " budgets in " << stats.total_cycle_seconds << "s — "
            << stats.served_from_cache << " cache hits, "
            << stats.warm_solves << " warm, " << stats.cold_solves
            << " cold\n"
            << "cycle latency: p50 " << latency.p50 << "s p90 " << latency.p90
            << "s p99 " << latency.p99 << "s max " << latency.max << "s\n"
            << "observed drift (cycle-over-cycle TV): p50 " << drift.p50
            << " p90 " << drift.p90 << " max " << drift.max << "\n"
            << "policy cache: " << stats.cache.hits << " hits / "
            << stats.cache.misses << " misses, " << stats.cache.insertions
            << " insertions, " << stats.cache.evictions << " evictions\n";

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    util::JsonValue::Object summary;
    summary["tool"] = "workload_replay";
    if (game_path.empty()) {
      summary["scenario"] = flags.GetString("scenario");
    } else {
      summary["game"] = game_path;
    }
    summary["stream"] = flags.GetString("stream");
    summary["cycles"] = *cycles;
    summary["cycles_completed"] = cycles_completed;
    summary["interrupted"] = g_interrupted != 0;
    summary["budgets"] = static_cast<int>(options.budgets.size());
    summary["cache_hits"] = static_cast<double>(stats.served_from_cache);
    summary["warm_solves"] = static_cast<double>(stats.warm_solves);
    summary["cold_solves"] = static_cast<double>(stats.cold_solves);
    summary["total_seconds"] = stats.total_cycle_seconds;
    summary["cycle_seconds_p50"] = latency.p50;
    summary["cycle_seconds_p90"] = latency.p90;
    summary["cycle_seconds_p99"] = latency.p99;
    summary["cycle_seconds_max"] = latency.max;
    summary["observed_drift_p50"] = drift.p50;
    summary["observed_drift_p90"] = drift.p90;
    summary["observed_drift_max"] = drift.max;
    // Report-I/O failures get the dedicated smoke exit code so CI can
    // tell them from metric failures (bench/exit_codes.h).
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return bench::kSmokeExitIoError;
    }
    out << util::JsonValue(std::move(summary)).Dump(2) << "\n";
    if (!out) {
      std::cerr << "write failed for " << json_path << "\n";
      return bench::kSmokeExitIoError;
    }
  }
  return bench::kSmokeExitOk;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
