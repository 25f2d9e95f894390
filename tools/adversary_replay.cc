// adversary_replay: closes the Stackelberg loop against the serving layer.
// A strategic attacker (exact best response, quantal response, or
// fictitious play) observes each cycle's served policy — its mixed per-type
// detection probabilities — and shifts alert mass toward the least-audited
// types; the tool replays that arms race through service::AuditService
// in-process or against a live audit_server over TCP, and reports per-cycle
// defender regret and exploitability gap against an exact re-solve.
//
// Three modes:
//   in-process loop      adversary_replay --scenario=zipf --cycles=20
//   real-trace replay    adversary_replay --trace=emr --cycles=12
//   remote loop / drill  adversary_replay --connect=127.0.0.1:7001 ...
// With --connect and --tenants > 1 the tool becomes the correlated-burst
// drill: one pipelined connection (a server::RequestWindow) drives every
// tenant per cycle, a BurstGenerator surges a tenant subset together,
// and the report adds burst-fairness numbers — per-tenant `overloaded`
// retry percentiles, answered ratio, per-tenant cycle-order preservation.
//
// Exit codes follow bench/exit_codes.h: 0 ok, 3 the JSON report could not
// be written, 4 a metric gate tripped (loss ratio, unanswered requests,
// order violation), 1 infrastructure/solver failure.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adversary/attacker.h"
#include "adversary/burst.h"
#include "adversary/loop.h"
#include "adversary/trace.h"
#include "bench/exit_codes.h"
#include "net/client.h"
#include "net/socket.h"
#include "prob/count_distribution.h"
#include "scenario/generator.h"
#include "scenario/stream.h"
#include "server/protocol.h"
#include "server/request_window.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/percentile.h"

namespace {

using namespace auditgame;  // NOLINT

/// Non-strategic "attacker" that replays a CycleSource-backed stream (the
/// EMR / credit trace adapters) — the same AdversaryLoop harness then
/// measures regret and exploitability on real-trace replays too.
class StreamAttacker : public adversary::Attacker {
 public:
  StreamAttacker(scenario::ScenarioStream* stream, int num_types)
      : stream_(stream), allocation_(static_cast<size_t>(num_types), 0.0) {}

  std::string_view Name() const override { return "trace"; }

  util::StatusOr<std::vector<prob::CountDistribution>> NextCycle(
      const std::vector<double>& /*observed_detection*/) override {
    return stream_->Next();
  }

  const std::vector<double>& last_allocation() const override {
    return allocation_;
  }

 private:
  scenario::ScenarioStream* stream_;
  std::vector<double> allocation_;
};

/// Per-cycle gate: the served loss must stay within `ratio`x of the exact
/// oracle floor, additively banded so zero/negative losses keep meaning
/// (ratio 2 is exactly the loop's within_2x definition).
bool LossRatioGateOk(const adversary::LoopReport& report, double ratio) {
  if (ratio <= 0.0) return true;
  for (const adversary::CycleMetrics& m : report.cycles) {
    if (m.served_loss - m.oracle_loss >
        std::max(1e-9, (ratio - 1.0) * std::abs(m.oracle_loss))) {
      return false;
    }
  }
  return true;
}

void AddLoopSummary(const adversary::LoopReport& report,
                    util::JsonValue::Object& summary) {
  const double served =
      static_cast<double>(report.cache_hits + report.warm_solves +
                          report.cold_solves);
  summary["cycles_completed"] = static_cast<int>(report.cycles.size());
  summary["cache_hits"] = static_cast<double>(report.cache_hits);
  summary["warm_solves"] = static_cast<double>(report.warm_solves);
  summary["cold_solves"] = static_cast<double>(report.cold_solves);
  summary["cache_hit_ratio"] =
      served > 0.0 ? static_cast<double>(report.cache_hits) / served : 0.0;
  summary["regret_gap_mean"] = report.regret_gap_mean;
  summary["regret_gap_max"] = report.regret_gap_max;
  summary["exploitability_gap_mean"] = report.exploitability_gap_mean;
  summary["exploitability_gap_max"] = report.exploitability_gap_max;
  summary["tracking_lag_max_cycles"] = report.tracking_lag_max_cycles;
  summary["tracking_within_2x"] = report.tracking_within_2x;
  summary["served_loss_mean"] = report.served_loss_mean;
  summary["oracle_loss_mean"] = report.oracle_loss_mean;
  summary["defender_seconds_total"] = report.defender_seconds_total;
  summary["oracle_seconds_total"] = report.oracle_seconds_total;
}

void PrintLoopSummary(const adversary::LoopReport& report) {
  std::cerr << report.cycles.size() << " cycles — " << report.cache_hits
            << " cache hits, " << report.warm_solves << " warm, "
            << report.cold_solves << " cold\n"
            << "regret gap: mean " << report.regret_gap_mean << " max "
            << report.regret_gap_max << "; exploitability gap: mean "
            << report.exploitability_gap_mean << " max "
            << report.exploitability_gap_max << "\n"
            << "tracking: within 2x of exact floor "
            << (report.tracking_within_2x ? "yes" : "NO")
            << ", longest lag run " << report.tracking_lag_max_cycles
            << " cycles\n";
}

int WriteJson(const std::string& path, util::JsonValue::Object summary) {
  if (path.empty()) return bench::kSmokeExitOk;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return bench::kSmokeExitIoError;
  }
  out << util::JsonValue(std::move(summary)).Dump(2) << "\n";
  if (!out) {
    std::cerr << "write failed for " << path << "\n";
    return bench::kSmokeExitIoError;
  }
  return bench::kSmokeExitOk;
}

/// Sends one request per tenant through `window` and waits for every
/// answer; the window re-sends `overloaded`/`backend_down` ones (nothing
/// was applied, so that is safe). Returns the "ok" response payloads by
/// tenant; `answered` counts them and `tenant_retries` accumulates each
/// tenant's re-sends, the fairness signal.
util::StatusOr<std::vector<std::string>> ExchangeAll(
    server::RequestWindow& window, int num_tenants,
    const std::function<std::string(int tenant, int64_t id)>& make_payload,
    int64_t& next_id, std::vector<int64_t>& tenant_retries,
    int64_t& answered) {
  for (int t = 0; t < num_tenants; ++t) {
    const int64_t id = next_id++;
    window.Submit(id, make_payload(t, id), static_cast<uint64_t>(t));
  }
  std::vector<std::string> payloads(static_cast<size_t>(num_tenants));
  int64_t given_up = 0;
  std::vector<server::RequestWindow::Completion> done;
  while (window.outstanding() > 0) {
    done.clear();
    RETURN_IF_ERROR(window.Poll(done));
    for (server::RequestWindow::Completion& completion : done) {
      const util::Status status = completion.ToStatus();
      if (status.code() == util::StatusCode::kResourceExhausted) {
        ++given_up;
      } else {
        RETURN_IF_ERROR(status);
        payloads[completion.tag] = std::move(completion.payload);
        ++answered;
      }
      tenant_retries[completion.tag] += completion.retries;
    }
  }
  if (given_up > 0) {
    return util::ResourceExhaustedError(
        std::to_string(given_up) +
        " requests still overloaded after retries");
  }
  return payloads;
}

std::string TenantName(int tenant) { return "tenant-" + std::to_string(tenant); }

/// The correlated-burst drill: every cycle, one pipelined window ingests a
/// per-tenant (burst-tilted) stream into all tenants and a second window
/// solves them all; tenant 0 carries the adversary loop (observe_policy +
/// local oracle) while the rest supply the correlated load.
int RunBurstDrill(const util::FlagParser& flags, core::GameInstance instance,
                  const adversary::DefenderConfig& config,
                  adversary::Attacker* attacker,
                  const adversary::AttackerEconomics& economics,
                  net::FrameClient& client) {
  const int tenants = flags.GetInt("tenants");
  const int cycles = flags.GetInt("cycles");
  const bool oracle = flags.GetBool("oracle");
  const double max_loss_ratio = flags.GetDouble("max_loss_ratio");

  // Every tenant's request of a phase goes out at once.
  server::RequestWindowOptions window_options;
  window_options.window = tenants;
  window_options.max_retries = flags.GetInt("max_retries");
  window_options.retry_backoff_ms = flags.GetInt("retry_backoff_ms");
  server::RequestWindow window(client, window_options);
  adversary::LoopSpec loop_spec;
  loop_spec.compute_oracle = oracle;

  auto compiled = core::Compile(instance);
  if (!compiled.ok()) {
    std::cerr << compiled.status() << "\n";
    return 1;
  }

  std::unique_ptr<adversary::BurstGenerator> burst;
  const std::string burst_name = flags.GetString("burst");
  if (burst_name != "none") {
    auto kind = adversary::BurstKindFromName(burst_name);
    if (!kind.ok()) {
      std::cerr << kind.status() << "\n";
      return 1;
    }
    adversary::BurstSpec spec;
    spec.kind = *kind;
    spec.period = flags.GetInt("burst_period");
    spec.duration = flags.GetInt("burst_duration");
    spec.amplitude = flags.GetDouble("burst_amplitude");
    spec.tenant_fraction = flags.GetDouble("burst_fraction");
    spec.target_type = flags.GetInt("burst_type");
    spec.seed = static_cast<uint64_t>(flags.GetInt("burst_seed"));
    burst = std::make_unique<adversary::BurstGenerator>(spec, tenants,
                                                        instance.num_types());
  }

  util::CsvWriter csv(std::cout);
  csv.WriteRow({"cycle", "burst_active", "burst_tenants", "source", "drift",
                "served_loss", "oracle_loss", "regret_gap",
                "exploitability_gap", "retries"});

  adversary::LoopReport loop;  // tenant 0's closed-loop metrics
  loop.cycles.reserve(static_cast<size_t>(cycles));
  std::vector<int64_t> tenant_retries(static_cast<size_t>(tenants), 0);
  std::vector<int64_t> last_cycle(static_cast<size_t>(tenants), 0);
  int64_t next_id = 1;
  int64_t answered = 0;
  int64_t total_requests = 0;
  bool order_preserved = true;
  bool exhausted = false;
  std::vector<double> observed;  // tenant 0's last mixed Pal

  for (int cycle = 1; cycle <= cycles; ++cycle) {
    auto stream = attacker->NextCycle(observed);
    if (!stream.ok()) {
      std::cerr << "cycle " << cycle << ": " << stream.status() << "\n";
      return 1;
    }
    // Each tenant's view of the cycle; tenant 0's is also the oracle's
    // ground truth.
    std::vector<std::vector<prob::CountDistribution>> per_tenant(
        static_cast<size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      if (burst != nullptr) {
        auto tilted = burst->Apply(cycle, t, *stream);
        if (!tilted.ok()) {
          std::cerr << "cycle " << cycle << ": " << tilted.status() << "\n";
          return 1;
        }
        per_tenant[static_cast<size_t>(t)] = std::move(*tilted);
      } else {
        per_tenant[static_cast<size_t>(t)] = *stream;
      }
    }
    const int64_t retries_before =
        std::accumulate(tenant_retries.begin(), tenant_retries.end(),
                        int64_t{0});

    total_requests += tenants;
    auto ingest_replies = ExchangeAll(
        window, tenants,
        [&per_tenant](int tenant, int64_t id) {
          return server::MakeIngestRequest(
              id, TenantName(tenant),
              per_tenant[static_cast<size_t>(tenant)]);
        },
        next_id, tenant_retries, answered);
    if (!ingest_replies.ok()) {
      std::cerr << "cycle " << cycle
                << " ingest: " << ingest_replies.status() << "\n";
      if (ingest_replies.status().code() ==
          util::StatusCode::kResourceExhausted) {
        exhausted = true;
        break;
      }
      return 1;
    }

    total_requests += tenants;
    auto solve_replies = ExchangeAll(
        window, tenants,
        [](int tenant, int64_t id) {
          return server::MakeSolveCycleRequest(id, TenantName(tenant),
                                               /*observe_policy=*/tenant == 0);
        },
        next_id, tenant_retries, answered);
    if (!solve_replies.ok()) {
      std::cerr << "cycle " << cycle << " solve: " << solve_replies.status()
                << "\n";
      if (solve_replies.status().code() ==
          util::StatusCode::kResourceExhausted) {
        exhausted = true;
        break;
      }
      return 1;
    }

    // Per-tenant cycle order: one tenant lives on one shard FIFO, so its
    // cycle counter must be strictly increasing.
    adversary::DefenderObservation tenant0;
    for (int t = 0; t < tenants; ++t) {
      auto doc =
          util::JsonValue::Parse((*solve_replies)[static_cast<size_t>(t)]);
      auto reply = doc.ok() ? server::ParseSolveCycleReply(*doc)
                            : util::StatusOr<server::SolveCycleReply>(
                                  doc.status());
      if (!reply.ok()) {
        std::cerr << "cycle " << cycle << ": " << reply.status() << "\n";
        return 1;
      }
      if (reply->cycle <= last_cycle[static_cast<size_t>(t)]) {
        order_preserved = false;
      }
      last_cycle[static_cast<size_t>(t)] = reply->cycle;
      if (t != 0) continue;
      if (reply->policies.empty() ||
          reply->policies[0].detection_probs.size() !=
              static_cast<size_t>(instance.num_types())) {
        std::cerr << "tenant 0 reply lacks detection_probs — server too old "
                     "for observe_policy?\n";
        return 1;
      }
      server::SolveCyclePolicy& p = reply->policies[0];
      tenant0.source = std::move(p.source);
      tenant0.drift = p.drift;
      tenant0.detection = std::move(p.detection_probs);
    }

    instance.alert_distributions = per_tenant[0];
    if (util::Status scored =
            adversary::ScoreCycle(instance, *compiled, economics, config,
                                  loop_spec, tenant0, loop);
        !scored.ok()) {
      std::cerr << "oracle cycle " << cycle << ": " << scored << "\n";
      return 1;
    }
    observed = std::move(tenant0.detection);
    const adversary::CycleMetrics& m = loop.cycles.back();

    const adversary::BurstEvent event =
        burst != nullptr ? burst->EventAt(cycle) : adversary::BurstEvent{};
    const int64_t retries_now =
        std::accumulate(tenant_retries.begin(), tenant_retries.end(),
                        int64_t{0});
    csv.WriteRow({std::to_string(cycle), event.active ? "1" : "0",
                  std::to_string(event.tenants.size()), m.source,
                  util::CsvWriter::FormatDouble(m.drift),
                  util::CsvWriter::FormatDouble(m.served_loss),
                  util::CsvWriter::FormatDouble(m.oracle_loss),
                  util::CsvWriter::FormatDouble(m.regret_gap),
                  util::CsvWriter::FormatDouble(m.exploitability_gap),
                  std::to_string(retries_now - retries_before)});
  }
  adversary::SummarizeLoop(loop);
  const size_t cycles_completed = loop.cycles.size();

  std::vector<double> retries_sorted(tenant_retries.begin(),
                                     tenant_retries.end());
  std::sort(retries_sorted.begin(), retries_sorted.end());
  const double retries_p50 =
      util::NearestRankPercentileSorted(retries_sorted, 0.50);
  const double retries_p90 =
      util::NearestRankPercentileSorted(retries_sorted, 0.90);
  const double retries_max =
      retries_sorted.empty() ? 0.0 : retries_sorted.back();
  const int64_t retries_total = std::accumulate(
      tenant_retries.begin(), tenant_retries.end(), int64_t{0});
  const bool all_answered = !exhausted && answered == total_requests;
  const double answered_ratio =
      total_requests > 0
          ? static_cast<double>(answered) / static_cast<double>(total_requests)
          : 1.0;
  const bool ratio_ok = !oracle || LossRatioGateOk(loop, max_loss_ratio);

  std::cerr << "burst drill: " << tenants << " tenants, " << cycles_completed
            << "/" << cycles << " cycles — answered " << answered << "/"
            << total_requests << " (ratio " << answered_ratio << "), "
            << retries_total << " overloaded retries (per-tenant p50 "
            << retries_p50 << " p90 " << retries_p90 << " max " << retries_max
            << "), cycle order " << (order_preserved ? "preserved" : "VIOLATED")
            << "\n";
  PrintLoopSummary(loop);

  util::JsonValue::Object summary;
  summary["tool"] = "adversary_replay";
  summary["mode"] = "burst-drill";
  summary["attacker"] = std::string(attacker->Name());
  summary["tenants"] = tenants;
  summary["cycles"] = cycles;
  summary["burst"] = burst_name;
  summary["total_requests"] = static_cast<double>(total_requests);
  summary["answered"] = static_cast<double>(answered);
  summary["answered_ratio"] = answered_ratio;
  summary["all_requests_answered"] = all_answered;
  summary["order_preserved"] = order_preserved;
  summary["overloaded_retries_total"] = static_cast<double>(retries_total);
  summary["tenant_retries_p50"] = retries_p50;
  summary["tenant_retries_p90"] = retries_p90;
  summary["tenant_retries_max"] = retries_max;
  summary["oracle"] = oracle;
  AddLoopSummary(loop, summary);
  const int io = WriteJson(flags.GetString("json"), std::move(summary));
  if (io != bench::kSmokeExitOk) return io;

  if (!all_answered || !order_preserved || !ratio_ok) {
    std::cerr << "gate failed:" << (all_answered ? "" : " unanswered-requests")
              << (order_preserved ? "" : " cycle-order")
              << (ratio_ok ? "" : " loss-ratio") << "\n";
    return bench::kSmokeExitDisagreement;
  }
  return bench::kSmokeExitOk;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  scenario::DefineScenarioFlags(flags, /*default_scenario=*/"zipf",
                                /*default_types=*/"0");
  flags.Define("attacker", "best-response",
               "attacker model: best-response, quantal, fictitious");
  flags.Define("attack_rate", "0.6", "attack-mass tilt strength");
  flags.Define("lambda", "4", "quantal-response rationality");
  flags.Define("attacker_seed", "1", "attacker seed (reserved)");
  flags.Define("cycles", "20", "audit cycles to replay");
  flags.Define("budget", "10", "audit budget served each cycle");
  flags.Define("eps", "0.25", "ISHM step size");
  flags.Define("warm_max_drift", "0.25",
               "drift threshold above which re-solves are cold");
  flags.Define("trace", "",
               "replay a dataset trace instead of a strategic attacker: "
               "emr or credit");
  flags.Define("trace_seed", "2017", "trace world/simulation seed");
  flags.Define("trace_days", "30", "trace days per audit cycle");
  flags.Define("revisit", "0",
               "every k-th trace cycle replays the baseline exactly "
               "(0 = never)");
  flags.Define("connect", "",
               "drive a live audit_server at host:port instead of the "
               "in-process service");
  flags.Define("tenants", "1",
               "with --connect: tenants driven per cycle (> 1 selects the "
               "pipelined burst drill)");
  flags.Define("burst", "none",
               "correlated burst shape across tenants: none, flash, fraud");
  flags.Define("burst_period", "10", "cycles between burst starts");
  flags.Define("burst_duration", "2", "cycles a burst lasts");
  flags.Define("burst_amplitude", "1", "burst tilt strength");
  flags.Define("burst_fraction", "0.5", "fraction of tenants per burst");
  flags.Define("burst_type", "0", "alert type a fraud burst targets");
  flags.Define("burst_seed", "7", "burst tenant-subset seed");
  flags.Define("oracle", "true",
               "re-solve exactly each cycle for regret/exploitability");
  flags.Define("max_loss_ratio", "0",
               "fail (exit 4) when a cycle's served loss exceeds this "
               "multiple of the oracle loss (0 = no gate)");
  flags.Define("max_retries", "200",
               "rounds an overloaded request is retried before giving up");
  flags.Define("retry_backoff_ms", "5", "sleep between retry rounds");
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

  // The game instance: a scenario-catalog game, or the trace's world.
  const std::string trace_name = flags.GetString("trace");
  std::unique_ptr<adversary::TraceAdapter> trace;
  std::unique_ptr<scenario::ScenarioStream> trace_stream;
  core::GameInstance instance;
  if (!trace_name.empty()) {
    auto kind = adversary::TraceKindFromName(trace_name);
    if (!kind.ok()) {
      std::cerr << kind.status() << "\n";
      return 1;
    }
    adversary::TraceSpec spec;
    spec.kind = *kind;
    spec.seed = static_cast<uint64_t>(flags.GetInt("trace_seed"));
    spec.days_per_cycle = flags.GetInt("trace_days");
    auto adapter = adversary::TraceAdapter::Create(spec);
    if (!adapter.ok()) {
      std::cerr << adapter.status() << "\n";
      return 1;
    }
    trace = std::move(*adapter);
    instance = trace->instance();
  } else {
    auto spec = scenario::SpecFromFlags(flags);
    if (!spec.ok()) {
      std::cerr << spec.status() << "\n";
      return 1;
    }
    auto generated = scenario::Generate(*spec);
    if (!generated.ok()) {
      std::cerr << generated.status() << "\n";
      return 1;
    }
    instance = std::move(*generated);
  }

  adversary::DefenderConfig config;
  config.budget = flags.GetDouble("budget");
  config.solver_options.ishm.step_size = flags.GetDouble("eps");
  config.warm_start_max_drift = flags.GetDouble("warm_max_drift");

  auto economics = adversary::DeriveEconomics(instance);
  if (!economics.ok()) {
    std::cerr << economics.status() << "\n";
    return 1;
  }

  // The alert stream driver: a strategic attacker, or the trace replayed
  // through a ScenarioStream (kExternal — baseline revisits still apply).
  std::unique_ptr<adversary::Attacker> attacker;
  if (trace != nullptr) {
    scenario::StreamSpec stream_spec;
    stream_spec.revisit_period = flags.GetInt("revisit");
    trace_stream = std::make_unique<scenario::ScenarioStream>(
        instance.alert_distributions, stream_spec, trace.get());
    attacker = std::make_unique<StreamAttacker>(trace_stream.get(),
                                                instance.num_types());
  } else {
    auto kind = adversary::AttackerKindFromName(flags.GetString("attacker"));
    if (!kind.ok()) {
      std::cerr << kind.status() << "\n";
      return 1;
    }
    adversary::AttackerSpec spec;
    spec.kind = *kind;
    spec.attack_rate = flags.GetDouble("attack_rate");
    spec.lambda = flags.GetDouble("lambda");
    spec.seed = static_cast<uint64_t>(flags.GetInt("attacker_seed"));
    auto made = adversary::MakeAttacker(spec, instance.alert_distributions,
                                        *economics);
    if (!made.ok()) {
      std::cerr << made.status() << "\n";
      return 1;
    }
    attacker = std::move(*made);
  }

  // Remote modes share one connection.
  const std::string connect = flags.GetString("connect");
  std::unique_ptr<net::FrameClient> client;
  if (!connect.empty()) {
    auto target = net::ParseHostPort(connect);
    if (!target.ok()) {
      std::cerr << "--connect: " << target.status().message() << "\n";
      return 1;
    }
    auto connected = server::RequestWindow::Dial(*target, /*timeout_ms=*/0);
    if (!connected.ok()) {
      std::cerr << "connect " << connect << ": " << connected.status() << "\n";
      return 1;
    }
    client = std::make_unique<net::FrameClient>(std::move(*connected));
  }

  const int tenants = flags.GetInt("tenants");
  if (tenants > 1) {
    if (client == nullptr) {
      std::cerr << "--tenants > 1 needs --connect (the burst drill drives a "
                   "live server)\n";
      return 1;
    }
    if (trace != nullptr) {
      std::cerr << "--trace and --tenants > 1 cannot be combined\n";
      return 1;
    }
    return RunBurstDrill(flags, std::move(instance), config, attacker.get(),
                         *economics, *client);
  }

  // Single-tenant closed loop, in-process or remote.
  std::unique_ptr<adversary::DefenderClient> defender;
  if (client != nullptr) {
    defender = std::make_unique<adversary::RemoteDefender>(
        client.get(), TenantName(0), flags.GetInt("max_retries"),
        flags.GetInt("retry_backoff_ms"));
  } else {
    defender = std::make_unique<adversary::InProcessDefender>(instance,
                                                              config);
  }

  auto loop = adversary::AdversaryLoop::Create(std::move(instance), config,
                                               defender.get(),
                                               attacker.get());
  if (!loop.ok()) {
    std::cerr << loop.status() << "\n";
    return 1;
  }
  adversary::LoopSpec spec;
  spec.cycles = flags.GetInt("cycles");
  spec.compute_oracle = flags.GetBool("oracle");
  auto report = loop->Run(spec);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }

  util::CsvWriter csv(std::cout);
  csv.WriteRow({"cycle", "source", "drift", "served_loss", "oracle_loss",
                "regret_gap", "exploitability_gap", "best_attack_utility",
                "within_2x", "lagging", "defender_seconds"});
  for (const adversary::CycleMetrics& m : report->cycles) {
    csv.WriteRow({std::to_string(m.cycle), m.source,
                  util::CsvWriter::FormatDouble(m.drift),
                  util::CsvWriter::FormatDouble(m.served_loss),
                  util::CsvWriter::FormatDouble(m.oracle_loss),
                  util::CsvWriter::FormatDouble(m.regret_gap),
                  util::CsvWriter::FormatDouble(m.exploitability_gap),
                  util::CsvWriter::FormatDouble(m.best_attack_utility),
                  m.within_2x ? "1" : "0", m.lagging ? "1" : "0",
                  util::CsvWriter::FormatDouble(m.defender_seconds)});
  }
  PrintLoopSummary(*report);

  util::JsonValue::Object summary;
  summary["tool"] = "adversary_replay";
  summary["mode"] = client != nullptr ? "remote" : "in-process";
  summary["attacker"] = std::string(attacker->Name());
  if (!trace_name.empty()) {
    summary["trace"] = trace_name;
  } else {
    summary["scenario"] = flags.GetString("scenario");
  }
  summary["cycles"] = spec.cycles;
  summary["oracle"] = spec.compute_oracle;
  AddLoopSummary(*report, summary);
  const int io = WriteJson(flags.GetString("json"), std::move(summary));
  if (io != bench::kSmokeExitOk) return io;

  const double max_loss_ratio = flags.GetDouble("max_loss_ratio");
  if (spec.compute_oracle && !LossRatioGateOk(*report, max_loss_ratio)) {
    std::cerr << "gate failed: a cycle's served loss exceeded "
              << max_loss_ratio << "x the oracle loss\n";
    return bench::kSmokeExitDisagreement;
  }
  return bench::kSmokeExitOk;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
