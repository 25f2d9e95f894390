// perf_client: the benchmark's load generator and checker. It drives one
// running audit_server over a single pipelined binary-protocol connection
// as a closed loop (closed_loop.h), in two phases — a set-up phase of one
// cycle per tenant (each tenant's first, cold solve) and the measured
// phase — and then replays every tenant's exact request sequence
// in-process (replay.h) to check each served policy. It writes one raw JSON
// document (counts, latency samples, the server's `stats` and /proc/<pid>/
// stat before and after the measured phase, replay results) to --out;
// perfbench/run.py turns that into metrics.
//
//   perf_client --port=7353 --server_pid=1234 --seed=1 --tenants=32
//       --cycles=140 --polls=20 --warm_up=1 --out=raw.json
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "closed_loop.h"
#include "replay.h"
#include "scenario/generator.h"
#include "server/audit_server.h"
#include "server/protocol.h"
#include "util/flags.h"
#include "util/json.h"

namespace perfbench {
namespace {

using namespace auditgame;  // NOLINT

// A response slower than this counts the request as unanswered.
constexpr int kReceiveTimeoutMs = 20000;
// The measured phase starts no new op after this long, so a pathologically
// slow server still ends the run well inside its time limit.
constexpr double kMeasuredCapSeconds = 75.0;
// Per-cycle jitter of each tenant's alert stream: small enough that every
// re-solve stays under the server's warm-start drift gate.
constexpr double kStreamDrift = 0.05;

/// `count` tenant names whose shards alternate 0, 1, ..., shards-1, so
/// every shard owns the same number of tenants and the round-robin client
/// keeps the same number of requests in flight on each.
std::vector<std::string> BalancedTenantNames(int count, int shards) {
  std::vector<std::deque<std::string>> spare(static_cast<size_t>(shards));
  std::vector<std::string> names;
  int64_t candidate = 0;
  for (int i = 0; i < count; ++i) {
    auto& wanted = spare[static_cast<size_t>(i % shards)];
    while (wanted.empty()) {
      std::string name = "tenant-" + std::to_string(candidate++);
      const size_t shard = server::AuditServer::ShardForTenant(
          name, static_cast<size_t>(shards));
      spare[shard].push_back(std::move(name));
    }
    names.push_back(std::move(wanted.front()));
    wanted.pop_front();
  }
  return names;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The server's `stats` body (JSON verb), or null on failure.
util::JsonValue FetchStats(net::FrameClient& client) {
  auto reply = client.Call(server::MakeStatsRequest(1LL << 40));
  if (!reply.ok()) return util::JsonValue();
  auto doc = util::JsonValue::Parse(*reply);
  return doc.ok() ? *std::move(doc) : util::JsonValue();
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("port", "0", "server port");
  flags.Define("server_pid", "0",
               "server process id, for its CPU time (/proc/<pid>/stat)");
  flags.Define("seed", "1", "stream seed: tenant i replays stream (seed, i)");
  flags.Define("tenants", "32", "simulated tenants");
  flags.Define("cycles", "10", "measured audit cycles per tenant");
  flags.Define("polls", "1", "solve_cycle requests per ingest");
  flags.Define("warm_up", "1",
               "1 = set-up phase of one ingest + solve_cycle per tenant");
  flags.Define("setup_only", "0", "1 = stop after the set-up phase");
  flags.Define("rounds", "5",
               "measured phase: equal-work rounds marked for per-round "
               "metrics");
  scenario::DefineScenarioFlags(flags, /*default_scenario=*/"uniform",
                                /*default_types=*/"5");
  flags.Define("budgets", "6,10", "the server's budgets");
  flags.Define("eps", "0.25", "the server's ISHM step size");
  flags.Define("warm_max_drift", "0.25", "the server's warm-start gate");
  flags.Define("trace", "0", "1 = trace the replay layer by layer");
  flags.Define("spans", "", "traced run: span CSV output path");
  flags.Define("out", "", "raw result JSON path (required)");
  if (util::Status parsed = flags.Parse(argc, argv); !parsed.ok()) {
    std::cerr << parsed << "\n" << flags.HelpString(argv[0]);
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  signal(SIGPIPE, SIG_IGN);
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    std::cerr << "--out is required\n";
    return 2;
  }
  auto spec = scenario::SpecFromFlags(flags);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\n";
    return 2;
  }
  auto instance = scenario::Generate(*spec);
  if (!instance.ok()) {
    std::cerr << instance.status() << "\n";
    return 2;
  }

  // The same service configuration tools/audit_server.cc builds from its
  // flags, so the replay reproduces the server's tenants.
  service::AuditServiceOptions service_options;
  service_options.budgets = flags.GetDoubleList("budgets");
  service_options.solver_options.ishm.step_size = flags.GetDouble("eps");
  service_options.solver_options.cggs.pricing_threads = 1;
  service_options.warm_start_max_drift = flags.GetDouble("warm_max_drift");
  service_options.num_threads = -1;

  auto client = net::FrameClient::Connect(
      "127.0.0.1", static_cast<uint16_t>(flags.GetInt("port")),
      /*connect_wait_ms=*/10000);
  if (!client.ok()) {
    std::cerr << "perf_client: " << client.status() << "\n";
    return 1;
  }
  (void)client->SetReceiveTimeout(kReceiveTimeoutMs);
  // Tenant names are balanced over the shard count the server reports.
  const util::JsonValue stats = FetchStats(*client);
  int shards = 0;
  if (const util::JsonValue* server_stats = stats.Find("server")) {
    if (auto count = server_stats->GetNumber("shards"); count.ok()) {
      shards = static_cast<int>(*count);
    }
  }
  if (shards < 1) {
    std::cerr << "perf_client: no shard count in the server's stats\n";
    return 1;
  }

  // Jitter streams with the default baseline revisit period.
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const std::vector<std::string> names =
      BalancedTenantNames(flags.GetInt("tenants"), shards);
  std::vector<Tenant> tenants(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    scenario::StreamSpec stream;
    stream.kind = scenario::StreamKind::kJitter;
    stream.drift_amplitude = kStreamDrift;
    stream.seed = seed * 0x9E3779B97F4A7C15ULL + i;
    tenants[i].name = names[i];
    tenants[i].stream = std::make_unique<scenario::ScenarioStream>(
        instance->alert_distributions, stream);
  }

  LoopConfig loop;
  util::JsonValue::Object doc;
  PhaseStats setup;
  if (flags.GetInt("warm_up") != 0) {
    setup = RunPhase(*client, tenants, /*cycles=*/1, /*polls=*/1, loop,
                     /*cap_seconds=*/1e9);
  }
  doc["setup"] = setup.ToJson();
  const auto write = [&out_path](util::JsonValue::Object body) {
    std::ofstream out(out_path);
    out << util::JsonValue(std::move(body)).Dump() << "\n";
    return out.good() ? 0 : 1;
  };
  if (flags.GetInt("setup_only") != 0 || setup.failed() > 0) {
    return write(std::move(doc));
  }

  // The stats verb serves a snapshot refreshed every 250 ms; wait one
  // refresh so the "before" figures include the whole set-up phase.
  const std::string proc_stat =
      "/proc/" + std::to_string(flags.GetInt("server_pid")) + "/stat";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  doc["stats_before"] = FetchStats(*client);
  doc["server_stat_before"] = ReadFile(proc_stat);
  loop.rounds = flags.GetInt("rounds");
  loop.sample_server = [&proc_stat] { return ReadFile(proc_stat); };
  const double cpu_before = ThreadCpuSeconds();
  const PhaseStats measured =
      RunPhase(*client, tenants, flags.GetInt("cycles"), flags.GetInt("polls"),
               loop, kMeasuredCapSeconds);
  doc["client_cpu_seconds"] = ThreadCpuSeconds() - cpu_before;
  doc["server_stat_after"] = ReadFile(proc_stat);
  doc["clock_ticks_per_second"] = static_cast<double>(sysconf(_SC_CLK_TCK));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  doc["stats_after"] = FetchStats(*client);

  // Loss over the measured phase summed per tenant, then over tenants in
  // order — the replay's order — so the sum does not depend on the order
  // responses arrived in.
  double loss_sum = 0.0;
  int64_t policies = 0;
  for (const Tenant& tenant : tenants) {
    double tenant_sum = 0.0;
    for (size_t k = tenant.measured_begin; k < tenant.ops.size(); ++k) {
      for (const PolicyRecord& policy : tenant.ops[k].policies) {
        tenant_sum += policy.objective;
        ++policies;
      }
    }
    loss_sum += tenant_sum;
  }
  doc["measured"] = measured.ToJson();
  doc["measured_loss_sum"] = loss_sum;
  doc["measured_policies"] = static_cast<double>(policies);

  ReplayOptions replay_options;
  replay_options.trace = flags.GetInt("trace") != 0;
  replay_options.spans_path = flags.GetString("spans");
  const ReplayResult replay =
      Replay(tenants, *instance, service_options, replay_options);
  util::JsonValue::Object replayed;
  replayed["policies_checked"] = static_cast<double>(replay.policies_checked);
  replayed["mismatches"] = static_cast<double>(replay.mismatches);
  replayed["mismatch_samples"] = util::JsonValue::Array(
      replay.mismatch_samples.begin(), replay.mismatch_samples.end());
  replayed["measured_loss_sum"] = replay.measured_loss_sum;
  replayed["measured_policies"] = static_cast<double>(replay.measured_policies);
  replayed["seconds"] = replay.seconds;
  doc["replay"] = std::move(replayed);
  if (replay_options.trace) doc["trace"] = replay.trace;
  return write(std::move(doc));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
