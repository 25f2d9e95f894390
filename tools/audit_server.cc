// audit_server: the sharded multi-tenant audit server as a standalone
// process. Serves the wire protocol of server/protocol.h — length-prefixed
// frames carrying JSON (`ingest` / `solve_cycle` / `stats`) or the compact
// binary encoding of the hot verbs (server/binary_codec.h) — over TCP.
// Connections are accepted on one listener thread and pinned to one of
// --reactors epoll event loops; requests route by tenant-id hash to one of
// --shards worker threads, each owning a single-writer AuditService per
// tenant. Responses may complete out of submission order across tenants
// (pipelining by correlation id); per-tenant order is structural.
// Backpressure is explicit: when a shard's bounded queue is full the
// request is answered `overloaded`, never buffered without limit.
//
// Every tenant's game starts as a copy of the configured scenario instance
// and diverges through `ingest`. SIGINT/SIGTERM trigger a graceful drain:
// accepted requests finish, their responses flush, then the process exits
// 0 and prints a final per-shard summary to stderr.
//
//   audit_server --port=7353 --shards=4 --scenario=uniform --types=5
//   audit_server --port=0    # ephemeral; the bound port is printed
#include <signal.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>

#include "scenario/generator.h"
#include "server/audit_server.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

using namespace auditgame;  // NOLINT

server::AuditServer* g_server = nullptr;

void HandleStopSignal(int /*signum*/) {
  if (g_server != nullptr) g_server->RequestStop();
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  server::DefineFrontEndFlags(flags, /*default_port=*/7353);
  server::DefineAuditServerFlags(flags);
  server::DefineDurabilityFlags(flags);
  flags.Define("stats_refresh_ms", "250",
               "stats-snapshot refresh period (the `stats` verb reads the "
               "snapshot, never the live shards)");
  scenario::DefineScenarioFlags(flags, /*default_scenario=*/"uniform",
                                /*default_types=*/"5");
  flags.Define("threads", "-1",
               "engine workers per tenant service; -1 = inline mode (solve "
               "on the shard thread, no per-tenant pool — the only mode "
               "that scales to tens of thousands of tenants)");
  flags.Define("pricing_threads", "1", "CGGS pricing threads per solve");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }

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

  auto parsed_options = server::AuditServerOptionsFromFlags(flags);
  auto front = server::FrontEndOptionsFromFlags(flags);
  auto durability = server::DurabilityOptionsFromFlags(flags);
  auto stats_refresh_ms = flags.GetIntAtLeast("stats_refresh_ms", 1);
  for (const util::Status& resolved :
       {parsed_options.status(), front.status(), durability.status(),
        stats_refresh_ms.status()}) {
    if (!resolved.ok()) {
      std::cerr << resolved << "\n";
      return 1;
    }
  }
  server::AuditServerOptions options = *std::move(parsed_options);
  options.front = *std::move(front);
  options.durability = *std::move(durability);
  options.stats_refresh_ms = *stats_refresh_ms;
  options.service.solver_options.cggs.pricing_threads =
      flags.GetInt("pricing_threads");
  options.service.num_threads = flags.GetInt("threads");

  server::AuditServer server(std::move(*instance), options);
  if (util::Status started = server.Start(); !started.ok()) {
    std::cerr << started << "\n";
    return 1;
  }

  // Graceful drain on SIGINT/SIGTERM; SIGPIPE is handled per-send
  // (MSG_NOSIGNAL) but ignored globally as a belt-and-braces.
  g_server = &server;
  struct sigaction action;
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  // SA_RESTART: the handler's eventfd write (Poller::Notify) is what
  // interrupts the event loop; no blocking call needs to fail with EINTR
  // for it.
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);

  std::cerr << "audit_server: listening on " << options.front.host << ":"
            << server.port() << " with " << options.num_shards << " shards, "
            << options.front.num_reactors << " reactors (queue capacity "
            << static_cast<int>(options.queue_capacity) << ", batch "
            << static_cast<int>(options.max_batch) << ")\n";
  if (options.durability.enabled()) {
    const auto body = server.StatsBody();
    uint64_t replayed = 0;
    double recovery_seconds = 0.0;
    if (auto it = body.find("shards"); it != body.end()) {
      for (const auto& shard : it->second.as_array()) {
        if (const util::JsonValue* p = shard.Find("persistence")) {
          replayed += static_cast<uint64_t>(
              p->Find("recovery_replayed")->as_number());
          recovery_seconds = std::max(
              recovery_seconds, p->Find("recovery_seconds")->as_number());
        }
      }
    }
    std::cerr << "audit_server: durable in " << options.durability.data_dir
              << " (wal_sync=" << server::WalSyncName(options.durability.wal_sync)
              << "); recovery replayed " << replayed << " WAL records in "
              << recovery_seconds << "s\n";
  }

  util::Status run = server.Run();
  g_server = nullptr;
  if (!run.ok()) {
    std::cerr << run << "\n";
    return 1;
  }
  std::cerr << "audit_server: drained; final stats:\n"
            << util::JsonValue(server.StatsBody()).Dump(2) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
