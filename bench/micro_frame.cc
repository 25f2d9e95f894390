// Microbenchmark for the binary wire codec of the audit server's hot verbs
// (server/binary_codec.h), on the two payloads that dominate serving
// traffic — an `ingest` request carrying per-type alert distributions and
// a `solve_cycle` response carrying the cycle's policies.
//
// Two kinds of numbers come out. `round_trip_identical` (the decode
// returns the request/response bit-exactly) is deterministic and gates in
// CI via tools/bench_compare.py; the payload sizes ride along as context.
// The encode/decode wall-clock times ride along as `*_seconds` fields —
// archived, not gated.
//
// Measured numbers land in BENCH_micro_frame.json.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/exit_codes.h"
#include "prob/count_distribution.h"
#include "server/binary_codec.h"
#include "service/audit_service.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/timer.h"

namespace {

using namespace auditgame;  // NOLINT

std::vector<prob::CountDistribution> MakeDistributions(int types,
                                                       int support) {
  std::vector<prob::CountDistribution> dists;
  for (int t = 0; t < types; ++t) {
    std::vector<double> pmf(static_cast<size_t>(support));
    for (int z = 0; z < support; ++z) {
      // Deterministic ragged shape: distinct per type, nothing uniform.
      pmf[static_cast<size_t>(z)] = 1.0 + ((z * 7 + t * 3) % 11);
    }
    auto dist = prob::CountDistribution::FromPmf(t, std::move(pmf));
    if (!dist.ok()) {
      std::cerr << dist.status() << "\n";
      std::exit(1);
    }
    dists.push_back(*std::move(dist));
  }
  return dists;
}

service::AuditService::CycleReport MakeReport(int budgets, int types) {
  service::AuditService::CycleReport report;
  report.cycle = 41;
  report.seconds = 0.015625;
  for (int b = 0; b < budgets; ++b) {
    service::AuditService::CyclePolicy policy;
    policy.budget = 5.0 + b;
    policy.source = service::AuditService::Source::kWarmSolve;
    policy.drift = 0.03125 * b;
    policy.result.objective = -1.25 - b;
    for (int t = 0; t < types; ++t) {
      policy.result.thresholds.push_back(static_cast<double>(t + b));
    }
    report.policies.push_back(std::move(policy));
  }
  return report;
}

// The wire carries IEEE-754 bits unchanged; the one place precision can
// move is CountDistribution's constructor, which renormalizes the decoded
// pmf (a divide by a sum within a few ULPs of 1). So "identical" here
// means support-exact and value-equal to 4 ULPs — the same contract the
// codec unit tests assert.
bool SameDistributions(const std::vector<prob::CountDistribution>& a,
                       const std::vector<prob::CountDistribution>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].min_value() != b[i].min_value() ||
        a[i].support_size() != b[i].support_size()) {
      return false;
    }
    for (int z = a[i].min_value(); z <= a[i].max_value(); ++z) {
      const double x = a[i].Pmf(z), y = b[i].Pmf(z);
      if (std::abs(x - y) > 4 * std::abs(x) * 2.220446049250313e-16) {
        return false;
      }
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("types", "5", "alert types per ingest payload");
  flags.Define("support", "24", "pmf entries per distribution");
  flags.Define("budgets", "2", "policies per solve_cycle response");
  flags.Define("reps", "2000", "encode+decode repetitions");
  flags.Define("json", "BENCH_micro_frame.json",
               "machine-readable report path (empty = none)");
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
  const util::StatusOr<int> types_flag = flags.GetIntAtLeast("types", 1);
  const util::StatusOr<int> support_flag = flags.GetIntAtLeast("support", 1);
  const util::StatusOr<int> budgets_flag = flags.GetIntAtLeast("budgets", 1);
  const util::StatusOr<int> reps_flag = flags.GetIntAtLeast("reps", 1);
  for (const util::Status& parsed :
       {types_flag.status(), support_flag.status(), budgets_flag.status(), reps_flag.status()}) {
    if (!parsed.ok()) {
      std::cerr << parsed << "\n";
      return 1;
    }
  }
  const int types = *types_flag;
  const int support = *support_flag;
  const int budgets = *budgets_flag;
  const int reps = *reps_flag;

  const auto dists = MakeDistributions(types, support);
  const auto report = MakeReport(budgets, types);

  // --- correctness: the codec must round-trip the ingest (see
  // SameDistributions for what "identical" means here) ---
  const std::string ingest =
      server::EncodeBinaryIngestRequest(7, "bench", dists);
  bool round_trip_identical;
  {
    auto decoded = server::DecodeBinaryRequest(ingest);
    round_trip_identical = decoded.ok() && decoded->id == 7 &&
                           decoded->tenant == "bench" &&
                           SameDistributions(decoded->distributions, dists);
  }
  const std::string response =
      server::EncodeBinarySolveCycleResponse(7, 0, report);
  {
    auto decoded = server::DecodeBinaryResponse(response);
    round_trip_identical =
        round_trip_identical && decoded.ok() &&
        decoded->cycle == report.cycle &&
        decoded->policies.size() == report.policies.size();
  }

  // --- timing: encode and decode throughput ---
  util::Timer timer;
  for (int i = 0; i < reps; ++i) {
    volatile size_t sink =
        server::EncodeBinaryIngestRequest(i, "bench", dists).size();
    (void)sink;
  }
  const double encode_seconds = timer.ElapsedSeconds();
  timer = util::Timer();
  size_t decoded_types = 0;
  for (int i = 0; i < reps; ++i) {
    auto parsed = server::DecodeBinaryRequest(ingest);
    decoded_types += parsed->distributions.size();
  }
  const double decode_seconds = timer.ElapsedSeconds();
  if (decoded_types != static_cast<size_t>(reps) * static_cast<size_t>(types)) {
    std::cerr << "decode sink mismatch\n";
    return bench::kSmokeExitDisagreement;
  }

  std::cerr << "micro_frame: ingest " << ingest.size() << "B, response "
            << response.size() << "B; encode " << encode_seconds
            << "s, decode " << decode_seconds << "s (" << reps << " reps)\n"
            << "  round_trip_identical=" << round_trip_identical << "\n";

  if (const std::string path = flags.GetString("json"); !path.empty()) {
    util::JsonValue::Object out;
    out["bench"] = "micro_frame";
    out["types"] = types;
    out["support"] = support;
    out["budgets"] = budgets;
    out["reps"] = reps;
    out["ingest_binary_bytes"] = static_cast<double>(ingest.size());
    out["response_binary_bytes"] = static_cast<double>(response.size());
    // Gated (deterministic).
    out["round_trip_identical"] = round_trip_identical;
    // Archived (machine-dependent).
    out["binary_encode_seconds"] = encode_seconds;
    out["binary_decode_seconds"] = decode_seconds;
    std::ofstream stream(path);
    if (!stream) {
      std::cerr << "cannot write " << path << "\n";
      return bench::kSmokeExitIoError;
    }
    stream << util::JsonValue(std::move(out)).Dump(2) << "\n";
  }
  return round_trip_identical ? bench::kSmokeExitOk
                              : bench::kSmokeExitDisagreement;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
