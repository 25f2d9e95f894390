// audit_router: the cluster front door. Speaks the same JSON/binary frame
// protocol as audit_server on its listening side and fans requests out to
// --backends audit_server processes: tenants are placed by consistent
// hashing (virtual nodes over the FNV-1a tenant hash), frames are
// forwarded over pipelined per-backend connections with correlation-id
// remapping, and state-mutating verbs are mirrored to each tenant's ring
// successor so a killed backend's tenants are served from a warm
// PolicyCache after re-routing. Health checks (periodic `stats` pings +
// response timeouts) drive the live ring: a dead backend's in-flight
// requests answer `backend_down` (retryable) and its tenants move to the
// successor; a recovered backend rejoins automatically.
//
// SIGINT/SIGTERM trigger a graceful drain (accepted requests finish,
// responses flush), then the process prints final stats to stderr and —
// with --json — writes the gateable cluster report, optionally folding a
// loadgen report's answered_ratio/order booleans into it so the CI drill
// gates one file.
//
//   audit_router --port=7450 --backends=127.0.0.1:7451,127.0.0.1:7452
#include <signal.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "server/router.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

using namespace auditgame;  // NOLINT

server::Router* g_router = nullptr;

void HandleStopSignal(int /*signum*/) {
  if (g_router != nullptr) g_router->RequestStop();
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::stringstream stream(text);
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  server::DefineFrontEndFlags(flags, /*default_port=*/7450);
  flags.Define("backends", "",
               "comma-separated backend audit_server addresses "
               "(host:port,host:port,...); list order is the ring identity");
  flags.Define("vnodes", "128", "virtual nodes per backend on the hash ring");
  flags.Define("replicate", "1",
               "mirror ingest/solve_cycle to each tenant's ring successor "
               "(warm failover); 0 = route only");
  flags.Define("replica_retries", "200",
               "overloaded-mirror retry budget per op (the client response "
               "is held until the mirror applied)");
  flags.Define("replica_retry_backoff_ms", "2",
               "delay between overloaded-mirror retries");
  flags.Define("window", "256",
               "per-backend in-flight frame window (pipelining depth)");
  flags.Define("backend_queue", "4096",
               "per-backend accepted-but-unanswered bound (beyond it new "
               "requests answer overloaded)");
  flags.Define("backend_timeout_ms", "5000",
               "no response from a backend for this long => drop the "
               "connection and fail over");
  flags.Define("ping_interval_ms", "500",
               "stats-ping period per backend (keeps the response-timeout "
               "health check armed); 0 = off");
  flags.Define("backend_wait_ms", "10000",
               "startup grace for backends to come up before serving");
  flags.Define("json", "",
               "write the cluster BENCH report (ReportBody) here on clean "
               "drain");
  flags.Define("loadgen_json", "",
               "fold answered_ratio and the protocol booleans from this "
               "loadgen report into --json (the CI gate rides in one file)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }

  auto front = server::FrontEndOptionsFromFlags(flags);
  if (!front.ok()) {
    std::cerr << front.status() << "\n";
    return 1;
  }
  server::RouterOptions options;
  options.front = *std::move(front);
  options.backends = SplitCommaList(flags.GetString("backends"));
  if (options.backends.empty()) {
    std::cerr << "--backends must name at least one host:port\n";
    return 1;
  }
  options.virtual_nodes = flags.GetInt("vnodes");
  options.replicate = flags.GetInt("replicate") != 0;
  options.replica_retries = flags.GetInt("replica_retries");
  options.replica_retry_backoff_ms = flags.GetInt("replica_retry_backoff_ms");
  options.ping_interval_ms = flags.GetInt("ping_interval_ms");
  options.backend_connect_wait_ms = flags.GetInt("backend_wait_ms");
  options.channel.window = flags.GetInt("window");
  options.channel.queue_capacity =
      static_cast<size_t>(std::max(1, flags.GetInt("backend_queue")));
  options.channel.response_timeout_ms = flags.GetInt("backend_timeout_ms");

  server::Router router(options);
  if (util::Status started = router.Start(); !started.ok()) {
    std::cerr << started << "\n";
    return 1;
  }

  g_router = &router;
  struct sigaction action;
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);

  std::cerr << "audit_router: listening on " << options.front.host << ":"
            << router.port() << " routing "
            << static_cast<int>(options.backends.size()) << " backends ("
            << options.virtual_nodes << " vnodes, replicate="
            << (options.replicate ? "on" : "off") << ")\n";

  util::Status run = router.Run();
  g_router = nullptr;
  if (!run.ok()) {
    std::cerr << run << "\n";
    return 1;
  }
  std::cerr << "audit_router: drained; final stats:\n"
            << util::JsonValue(router.StatsBody()).Dump(2) << "\n";

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    util::JsonValue::Object body = router.ReportBody();
    body["bench"] = "cluster_router";
    const std::string loadgen_json = flags.GetString("loadgen_json");
    if (!loadgen_json.empty()) {
      std::ifstream in(loadgen_json);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      auto doc = util::JsonValue::Parse(text);
      if (!doc.ok()) {
        std::cerr << "audit_router: cannot parse " << loadgen_json << ": "
                  << doc.status() << "\n";
        return 1;
      }
      if (auto ratio = doc->GetNumber("answered_ratio"); ratio.ok()) {
        body["answered_ratio"] = *ratio;
      }
      for (const char* key : {"all_requests_answered", "zero_protocol_errors",
                              "order_preserved"}) {
        auto value = doc->GetBool(key);
        body[key] = value.ok() && *value;
      }
    }
    std::ofstream out(json_path);
    out << util::JsonValue(std::move(body)).Dump(2) << "\n";
    if (!out) {
      std::cerr << "audit_router: cannot write " << json_path << "\n";
      return 1;
    }
    std::cerr << "audit_router: wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
