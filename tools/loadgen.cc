// loadgen: socket-level load generator for the audit server. Multiplexes
// many simulated tenants — tens of thousands, far more than one thread or
// connection per tenant could reach — over a small set of shared,
// *pipelined* connections: each connection runs one server::RequestWindow
// (at most one request per tenant in it, so per-tenant order stays
// meaningful), which pairs responses back to tenants by correlation id and
// batches both directions (one send(2) per window top-up, one recv(2) per
// response burst). Requests use the binary encoding of the hot verbs (their
// only encoding; server/binary_codec.h). Each tenant replays a
// scenario alert stream (src/scenario/) as `ingest` + `solve_cycle`
// cycles; --solves_per_cycle polls the policy several times per ingest
// (the read-heavy serving pattern the policy cache exists for).
//
// The serving contract is verified as it goes: every request must be
// answered (policy, `overloaded`, or an error frame), responses must pair
// with a sent request, and each tenant's solve responses must carry
// strictly increasing cycle numbers — the per-tenant ordering the shard
// routing guarantees even while responses interleave across tenants.
// `overloaded` responses are retried with a backoff that never blocks the
// connection (the tenant sits out while others keep the window full).
// Exits non-zero when any check fails, when an op is given up after
// exhausting its `overloaded` or `backend_down` retries (work was dropped),
// or when --min_throughput is set and goodput (successful solve_cycle
// responses per second) falls below it.
//
// With --connect it drives one or more external servers (comma-separated
// targets; connection c dials target c mod targets) — an audit_server for
// the CI smoke job's two-process mode, or audit_router front doors for the
// cluster drill. Without it, it starts an in-process server on an
// ephemeral port — the self-contained mode ctest runs — and shuts it down
// gracefully at the end. Against a cluster, two extra recovery paths keep
// a killed backend a latency blip instead of a failed run: `backend_down`
// responses are retried like `overloaded` (the router answers them for
// requests lost with a dead backend — nothing was applied), and a dropped
// connection is re-dialed up to --reconnects times with every in-flight
// request re-sent byte-identical (same correlation ids, so the pairing
// and per-tenant order checks keep running across the gap).
//
//   loadgen --tenants=10000 --cycles=5 --connections=2 --window=256
//   loadgen --connect=127.0.0.1:7353 --tenants=2000
//   loadgen --connect=127.0.0.1:7450 --reconnects=4 --retries=400
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/socket.h"
#include "scenario/generator.h"
#include "scenario/stream.h"
#include "server/audit_server.h"
#include "server/binary_codec.h"
#include "server/protocol.h"
#include "server/request_window.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/percentile.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT
using Clock = std::chrono::steady_clock;

struct WorkerConfig {
  int cycles = 0;
  int solves_per_cycle = 1;
  scenario::StreamSpec stream_spec;
  /// Every connection's window; its re-dial target is set per connection.
  server::RequestWindowOptions window;
};

struct WorkerResult {
  int64_t requests = 0;
  int64_t ok = 0;
  int64_t request_errors = 0;
  /// Requests that never got a response frame (timeout, dropped
  /// connection) — the "dropped in silence" class that must stay zero.
  int64_t transport_failures = 0;
  int64_t overloaded_retries = 0;
  /// Requests still `overloaded` after every retry (answered, but the
  /// op was abandoned).
  int64_t gave_up_overloaded = 0;
  /// `backend_down` responses retried (cluster mode: the request died with
  /// a backend; the retry re-routes to the failover target).
  int64_t backend_down_retries = 0;
  int64_t gave_up_backend_down = 0;
  /// Successful transport re-dials (every in-flight request re-sent).
  int64_t reconnects = 0;
  int64_t order_violations = 0;
  /// Responses whose correlation id matched no in-flight request.
  int64_t unmatched_responses = 0;
  std::vector<double> latency_seconds;
  std::vector<std::string> error_samples;

  void SampleError(std::string message) {
    if (error_samples.size() < 5) error_samples.push_back(std::move(message));
  }
};

/// One simulated tenant's replay state machine. At most one request of a
/// tenant is ever outstanding, so its cycle order is checkable even while
/// the connection interleaves thousands of tenants.
struct TenantState {
  std::string name;
  std::unique_ptr<scenario::ScenarioStream> stream;
  enum class Phase { kIngest, kSolve, kDone } phase = Phase::kIngest;
  int cycle = 0;        // completed cycles
  int solves_done = 0;  // solve ops completed within the current cycle
  int64_t last_cycle = 0;
  /// The current op is in the window (on the wire or sitting out).
  bool in_flight = false;
  Clock::time_point op_start;
  /// Ops that reached a terminal answer, plus ops skipped after a failed
  /// ingest — the bookkeeping a transport-failure abort needs to count
  /// exactly the never-answered remainder.
  int64_t ops_terminal = 0;
  int64_t ops_skipped = 0;
};

/// Ops each tenant sends over a full clean replay.
int64_t PlannedOps(const WorkerConfig& config) {
  return static_cast<int64_t>(config.cycles) *
         (1 + static_cast<int64_t>(config.solves_per_cycle));
}

/// Drives every tenant assigned to one shared connection to completion.
void RunConnection(const std::vector<int>& tenant_indices,
                   const std::vector<prob::CountDistribution>& baseline,
                   const WorkerConfig& config, const net::HostPort& target,
                   WorkerResult& result) {
  auto client = server::RequestWindow::Dial(target, config.window.timeout_ms);
  if (!client.ok()) {
    // The whole replay is unanswered: count every request it would have
    // sent as a transport failure rather than silently shrinking the run.
    const int64_t planned =
        PlannedOps(config) * static_cast<int64_t>(tenant_indices.size());
    result.requests += planned;
    result.transport_failures += planned;
    result.SampleError(client.status().ToString());
    return;
  }
  server::RequestWindowOptions window_options = config.window;
  window_options.target = target;
  server::RequestWindow window(*client, window_options);

  std::vector<TenantState> tenants;
  tenants.reserve(tenant_indices.size());
  for (const int tenant_index : tenant_indices) {
    TenantState state;
    state.name = "tenant-" + std::to_string(tenant_index);
    scenario::StreamSpec spec = config.stream_spec;
    spec.seed += static_cast<uint64_t>(tenant_index);  // per-tenant stream
    state.stream =
        std::make_unique<scenario::ScenarioStream>(baseline, spec);
    tenants.push_back(std::move(state));
  }

  int64_t next_id = 0;
  size_t active = tenants.size();
  size_t cursor = 0;  // round-robin top-up position

  // Advances one tenant past a terminal response. `ok` distinguishes a
  // served op from an abandoned one (error / gave-up overloaded) — a
  // failed ingest skips the cycle's solves, since solving now would run on
  // stale distributions.
  const auto advance = [&](TenantState& tenant, bool op_ok) {
    ++tenant.ops_terminal;
    const auto finish_cycle = [&] {
      ++tenant.cycle;
      tenant.solves_done = 0;
      tenant.phase = tenant.cycle >= config.cycles
                         ? TenantState::Phase::kDone
                         : TenantState::Phase::kIngest;
      if (tenant.phase == TenantState::Phase::kDone) --active;
    };
    if (tenant.phase == TenantState::Phase::kIngest) {
      if (!op_ok || config.solves_per_cycle == 0) {
        if (!op_ok) tenant.ops_skipped += config.solves_per_cycle;
        finish_cycle();
        return;
      }
      tenant.phase = TenantState::Phase::kSolve;
      return;
    }
    // kSolve:
    ++tenant.solves_done;
    if (tenant.solves_done >= config.solves_per_cycle) finish_cycle();
  };

  using Completion = server::RequestWindow::Completion;
  const auto process = [&](const Completion& done) {
    if (done.kind == Completion::Kind::kUndecodable) {
      ++result.request_errors;
      result.SampleError(done.response.message);
      return;
    }
    if (done.kind == Completion::Kind::kUnmatched) {
      ++result.unmatched_responses;
      result.SampleError("unmatched response id " +
                         std::to_string(done.response.correlation_id));
      return;
    }
    TenantState& tenant = tenants[done.tag];
    tenant.in_flight = false;
    result.latency_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - tenant.op_start)
            .count());
    if (done.response.status != server::kBinaryStatusOk) {
      if (done.response.status == server::kBinaryStatusOverloaded) {
        ++result.gave_up_overloaded;
      } else if (done.response.status == server::kBinaryStatusBackendDown) {
        ++result.gave_up_backend_down;
      } else {
        ++result.request_errors;
        if (!done.response.message.empty()) {
          result.SampleError(done.response.message);
        }
      }
      advance(tenant, /*op_ok=*/false);
      return;
    }
    if (tenant.phase == TenantState::Phase::kSolve) {
      ++result.ok;
      if (done.response.verb != server::kBinaryVerbSolveCycle ||
          done.response.cycle <= tenant.last_cycle) {
        ++result.order_violations;
      } else {
        tenant.last_cycle = done.response.cycle;
      }
    }
    advance(tenant, /*op_ok=*/true);
  };

  util::Status transport = util::OkStatus();
  std::vector<Completion> completed;
  while (active > 0) {
    // Top up the window: walk the tenants round-robin, submitting one op
    // per idle tenant until the window is full.
    size_t scanned = 0;
    while (window.HasRoom() && scanned < tenants.size()) {
      const size_t slot = cursor;
      TenantState& tenant = tenants[slot];
      cursor = (cursor + 1) % tenants.size();
      ++scanned;
      if (tenant.phase == TenantState::Phase::kDone || tenant.in_flight) {
        continue;
      }
      const int64_t id = ++next_id;
      std::string payload;
      if (tenant.phase == TenantState::Phase::kIngest) {
        auto dists = tenant.stream->Next();
        if (!dists.ok()) {
          ++result.request_errors;
          result.SampleError(dists.status().ToString());
          tenant.phase = TenantState::Phase::kDone;
          --active;
          continue;
        }
        payload = server::EncodeBinaryIngestRequest(id, tenant.name, *dists);
      } else {
        payload = server::EncodeBinarySolveCycleRequest(id, tenant.name);
      }
      tenant.op_start = Clock::now();
      tenant.in_flight = true;
      window.Submit(id, std::move(payload), slot);
    }
    completed.clear();
    transport = window.Poll(completed);
    for (const Completion& done : completed) process(done);
    if (!transport.ok()) break;
  }

  result.requests += window.frames_sent();
  result.overloaded_retries += window.overloaded_retries();
  result.backend_down_retries += window.backend_down_retries();
  result.reconnects += window.reconnects();
  if (transport.ok()) return;
  // The transport died with the re-dial budget spent: everything still in
  // the window — and everything the connection's tenants would still have
  // sent — is counted as unanswered, mirroring the connect-failure path.
  result.SampleError(transport.ToString());
  result.transport_failures += static_cast<int64_t>(window.outstanding());
  for (const TenantState& tenant : tenants) {
    if (tenant.phase == TenantState::Phase::kDone) continue;
    int64_t remaining =
        PlannedOps(config) - tenant.ops_terminal - tenant.ops_skipped;
    if (tenant.in_flight) --remaining;  // counted via outstanding() above
    if (remaining > 0) {
      result.requests += remaining;
      result.transport_failures += remaining;
    }
  }
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("connect", "",
               "comma-separated host:port targets of running servers or "
               "routers (connection c dials target c mod targets; empty = "
               "start an audit_server in-process on an ephemeral port)");
  flags.Define("tenants", "64", "simulated tenants (multiplexed)");
  flags.Define("cycles", "25",
               "audit cycles per tenant (1 ingest + solves_per_cycle "
               "solves each)");
  flags.Define("solves_per_cycle", "1",
               "solve_cycle requests per ingest (policy polling)");
  flags.Define("connections", "2",
               "shared pipelined connections (one worker thread each)");
  flags.Define("window", "64",
               "max in-flight requests per connection (at most one per "
               "tenant)");
  flags.Define("retries", "50",
               "max retries per overloaded/backend_down response");
  flags.Define("retry_backoff_ms", "5", "tenant sit-out after a retryable "
               "response");
  flags.Define("reconnects", "0",
               "transport re-dials per connection before the run aborts "
               "(cluster mode: ride out a router/backend restart); 0 = a "
               "dropped connection is fatal");
  flags.Define("timeout_ms", "30000", "per-response receive timeout");
  flags.Define("min_throughput", "0",
               "fail (and report throughput_floor_met=false) below this "
               "goodput: successful solve_cycle responses/s (0 = no floor)");
  // Scenario flags must match the server's so ingest type counts line up.
  scenario::DefineScenarioFlags(flags, /*default_scenario=*/"uniform",
                                /*default_types=*/"5");
  flags.Define("stream", "jitter",
               "alert-stream evolution: jitter, walk, seasonal");
  flags.Define("drift", "0.05", "per-cycle drift amplitude");
  flags.Define("revisit", "5",
               "every k-th cycle replays the baseline exactly (0 = never)");
  flags.Define("season", "7", "cycles per seasonal oscillation");
  flags.Define("stream_seed", "1",
               "stream RNG seed (tenant i uses stream_seed + i)");
  flags.Define("json", "", "BENCH_server.json output path (empty = none)");
  // In-process-server configuration, the audit_server's own flags. With
  // --connect none of them apply: the report's `shards` comes from the
  // target's `stats` reply.
  server::DefineAuditServerFlags(flags);
  flags.Define("reactors", "1", "in-process server: reactor IO threads");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  signal(SIGPIPE, SIG_IGN);

  auto spec = scenario::SpecFromFlags(flags);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\n";
    return 1;
  }
  auto instance = scenario::Generate(*spec);
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 1;
  }
  const std::vector<prob::CountDistribution> baseline =
      instance->alert_distributions;

  auto stream_kind = scenario::StreamKindFromName(flags.GetString("stream"));
  if (!stream_kind.ok()) {
    std::cerr << stream_kind.status() << "\n";
    return 1;
  }

  // Out-of-range counts are refused, not clamped into a different run.
  auto solves_per_cycle = flags.GetIntAtLeast("solves_per_cycle", 0);
  auto window = flags.GetIntAtLeast("window", 1);
  auto reconnects = flags.GetIntAtLeast("reconnects", 0);
  auto reactors = flags.GetIntAtLeast("reactors", 1);
  auto tenants_flag = flags.GetIntAtLeast("tenants", 1);
  auto connections_flag = flags.GetIntAtLeast("connections", 1);
  auto cycles = flags.GetIntAtLeast("cycles", 1);
  auto retries = flags.GetIntAtLeast("retries", 0);
  auto retry_backoff_ms = flags.GetIntAtLeast("retry_backoff_ms", 0);
  auto timeout_ms = flags.GetIntAtLeast("timeout_ms", 0);
  auto revisit = flags.GetIntAtLeast("revisit", 0);
  auto season = flags.GetIntAtLeast("season", 1);
  for (const util::Status& parsed :
       {solves_per_cycle.status(), window.status(), reconnects.status(),
        reactors.status(), tenants_flag.status(), connections_flag.status(),
        cycles.status(), retries.status(), retry_backoff_ms.status(),
        timeout_ms.status(), revisit.status(), season.status()}) {
    if (!parsed.ok()) {
      std::cerr << parsed << "\n";
      return 1;
    }
  }
  const int tenants = *tenants_flag;
  const int connections = *connections_flag;
  if (connections > tenants) {
    std::cerr << "--connections must be at most --tenants, got "
              << connections << " > " << tenants << "\n";
    return 1;
  }

  WorkerConfig config;
  config.cycles = *cycles;
  config.solves_per_cycle = *solves_per_cycle;
  config.window.window = *window;
  config.window.max_retries = *retries;
  config.window.retry_backoff_ms = *retry_backoff_ms;
  config.window.reconnects = *reconnects;
  config.window.timeout_ms = *timeout_ms;
  config.stream_spec.kind = *stream_kind;
  config.stream_spec.drift_amplitude = flags.GetDouble("drift");
  config.stream_spec.revisit_period = *revisit;
  config.stream_spec.season_period = *season;
  config.stream_spec.seed = static_cast<uint64_t>(flags.GetInt("stream_seed"));

  // Targets: external servers/routers, or an in-process server on an
  // ephemeral port.
  std::vector<net::HostPort> targets;
  std::unique_ptr<server::AuditServer> local_server;
  std::thread server_thread;
  const std::string connect = flags.GetString("connect");
  if (connect.empty()) {
    auto options = server::AuditServerOptionsFromFlags(flags);
    if (!options.ok()) {
      std::cerr << options.status() << "\n";
      return 1;
    }
    options->front.port = 0;
    options->front.num_reactors = *reactors;
    local_server = std::make_unique<server::AuditServer>(
        core::GameInstance(*instance), *options);
    if (util::Status started = local_server->Start(); !started.ok()) {
      std::cerr << started << "\n";
      return 1;
    }
    targets.push_back(net::HostPort{"127.0.0.1", local_server->port()});
    server_thread = std::thread([&local_server] {
      if (util::Status run = local_server->Run(); !run.ok()) {
        std::cerr << "in-process server: " << run << "\n";
      }
    });
  } else {
    std::string entry;
    std::stringstream list(connect);
    while (std::getline(list, entry, ',')) {
      if (entry.empty()) continue;
      auto target = net::ParseHostPort(entry);
      if (!target.ok()) {
        std::cerr << "--connect: " << target.status().message() << "\n";
        return 1;
      }
      targets.push_back(std::move(*target));
    }
    if (targets.empty()) {
      std::cerr << "--connect must name at least one host:port\n";
      return 1;
    }
  }

  // Round-robin tenant partition: connection c drives tenants c, c+C, ...
  std::vector<std::vector<int>> partition(
      static_cast<size_t>(connections));
  for (int t = 0; t < tenants; ++t) {
    partition[static_cast<size_t>(t % connections)].push_back(t);
  }

  std::vector<WorkerResult> results(static_cast<size_t>(connections));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(connections));
  util::Timer wall;
  for (int c = 0; c < connections; ++c) {
    const net::HostPort& target =
        targets[static_cast<size_t>(c) % targets.size()];
    workers.emplace_back(RunConnection, std::cref(partition[c]),
                         std::cref(baseline), std::cref(config),
                         std::cref(target), std::ref(results[c]));
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds = wall.ElapsedSeconds();

  // One stats round trip for the server-side view (queue depths, batches,
  // per-shard tenancy) before tearing anything down.
  std::string server_stats;
  std::optional<int> server_shards;
  if (auto client = net::FrameClient::Connect(targets[0].host,
                                              targets[0].port, 2000);
      client.ok()) {
    (void)client->SetReceiveTimeout(5000);
    if (auto reply = client->Call(server::MakeStatsRequest(0)); reply.ok()) {
      if (auto doc = util::JsonValue::Parse(*reply); doc.ok()) {
        server_stats = doc->Dump(2);
        if (const util::JsonValue* server = doc->Find("server")) {
          if (auto shards = server->GetNumber("shards"); shards.ok()) {
            server_shards = static_cast<int>(*shards);
          }
        }
      }
    }
  }

  if (local_server != nullptr) {
    local_server->RequestStop();
    server_thread.join();
  }

  WorkerResult total;
  std::vector<double> latencies;
  for (WorkerResult& r : results) {
    total.requests += r.requests;
    total.ok += r.ok;
    total.request_errors += r.request_errors;
    total.transport_failures += r.transport_failures;
    total.overloaded_retries += r.overloaded_retries;
    total.gave_up_overloaded += r.gave_up_overloaded;
    total.backend_down_retries += r.backend_down_retries;
    total.gave_up_backend_down += r.gave_up_backend_down;
    total.reconnects += r.reconnects;
    total.order_violations += r.order_violations;
    total.unmatched_responses += r.unmatched_responses;
    latencies.insert(latencies.end(), r.latency_seconds.begin(),
                     r.latency_seconds.end());
    for (std::string& sample : r.error_samples) {
      total.SampleError(std::move(sample));
    }
  }
  const int64_t answered = total.requests - total.transport_failures;
  // An op given up after exhausting its retries was dropped, not served.
  const bool all_ops_completed =
      total.gave_up_overloaded == 0 && total.gave_up_backend_down == 0;
  const double answered_ratio =
      total.requests == 0
          ? 0.0
          : static_cast<double>(answered) / static_cast<double>(total.requests);
  const util::Percentiles latency = util::Summarize(std::move(latencies));
  const double throughput =
      wall_seconds > 0.0
          ? static_cast<double>(total.requests) / wall_seconds
          : 0.0;
  // Goodput: successful solve_cycle responses per second. Ingests,
  // retries and rejected attempts do not count, so the floor cannot be met
  // by a server that mostly answers `overloaded`.
  const double goodput =
      wall_seconds > 0.0 ? static_cast<double>(total.ok) / wall_seconds : 0.0;
  const double min_throughput = flags.GetDouble("min_throughput");
  const bool floor_met = min_throughput <= 0.0 || goodput >= min_throughput;

  std::cerr << "loadgen: " << tenants << " tenants x " << config.cycles
            << " cycles (" << config.solves_per_cycle
            << " solves/cycle) over " << connections
            << " connections (window " << config.window.window << ") -> "
            << total.requests << " requests in " << wall_seconds << "s ("
            << throughput << " req/s, goodput " << goodput << " ok/s)\n"
            << "  ok " << total.ok << ", errors " << total.request_errors
            << ", unanswered " << total.transport_failures
            << ", unmatched " << total.unmatched_responses
            << ", overloaded retries " << total.overloaded_retries
            << " (gave up " << total.gave_up_overloaded << ")"
            << ", backend_down retries " << total.backend_down_retries
            << " (gave up " << total.gave_up_backend_down << ")"
            << ", reconnects " << total.reconnects
            << ", order violations " << total.order_violations << "\n"
            << "  latency: p50 " << latency.p50 << "s p90 " << latency.p90
            << "s p99 " << latency.p99 << "s max " << latency.max << "s\n";
  if (min_throughput > 0.0) {
    std::cerr << "  goodput floor " << min_throughput
              << " ok/s: " << (floor_met ? "met" : "NOT MET") << "\n";
  }
  for (const std::string& sample : total.error_samples) {
    std::cerr << "  error: " << sample << "\n";
  }
  if (!server_stats.empty()) {
    std::cerr << "server stats:\n" << server_stats << "\n";
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    util::JsonValue::Object summary;
    summary["bench"] = "server_loadgen";
    summary["tenants"] = tenants;
    summary["cycles"] = config.cycles;
    summary["solves_per_cycle"] = config.solves_per_cycle;
    summary["connections"] = connections;
    summary["window"] = config.window.window;
    // An external target that reports no shard count (a router) leaves
    // the field out.
    if (connect.empty()) {
      summary["shards"] = flags.GetInt("shards");
    } else if (server_shards.has_value()) {
      summary["shards"] = *server_shards;
    }
    summary["scenario"] = flags.GetString("scenario");
    summary["stream"] = flags.GetString("stream");
    summary["requests_total"] = static_cast<double>(total.requests);
    summary["responses_ok"] = static_cast<double>(total.ok);
    summary["request_errors"] = static_cast<double>(total.request_errors);
    summary["unanswered_requests"] =
        static_cast<double>(total.transport_failures);
    summary["unmatched_responses"] =
        static_cast<double>(total.unmatched_responses);
    summary["overloaded_retries"] =
        static_cast<double>(total.overloaded_retries);
    summary["gave_up_overloaded"] =
        static_cast<double>(total.gave_up_overloaded);
    summary["backend_down_retries"] =
        static_cast<double>(total.backend_down_retries);
    summary["gave_up_backend_down"] =
        static_cast<double>(total.gave_up_backend_down);
    summary["reconnects"] = static_cast<double>(total.reconnects);
    summary["order_violations"] =
        static_cast<double>(total.order_violations);
    // The gated contract: booleans must stay true, the ratio must not
    // fall (tools/bench_compare.py's classification).
    summary["zero_protocol_errors"] =
        total.request_errors == 0 && total.unmatched_responses == 0;
    summary["order_preserved"] = total.order_violations == 0;
    summary["all_requests_answered"] = total.transport_failures == 0;
    summary["all_ops_completed"] = all_ops_completed;
    summary["throughput_floor_met"] = floor_met;
    summary["answered_ratio"] = answered_ratio;
    // Timing fields ride along ungated (machine-dependent).
    summary["wall_seconds"] = wall_seconds;
    summary["throughput_rps"] = throughput;
    summary["goodput_rps"] = goodput;
    summary["latency_seconds_p50"] = latency.p50;
    summary["latency_seconds_p90"] = latency.p90;
    summary["latency_seconds_p99"] = latency.p99;
    summary["latency_seconds_max"] = latency.max;
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << util::JsonValue(std::move(summary)).Dump(2) << "\n";
  }

  const bool clean = total.request_errors == 0 &&
                     total.transport_failures == 0 &&
                     total.order_violations == 0 &&
                     total.unmatched_responses == 0 && all_ops_completed &&
                     floor_met;
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
