// audit_state: offline inspector for an audit_server --data_dir. Walks
// every shard-<i>/ directory, verifies each snapshot (header + body CRC)
// and WAL segment (header CRC, per-record CRC, LSN contiguity within and
// across segments, snapshot coverage), and reports what recovery would
// see. A torn tail in the *newest* segment of a shard is a legal crash
// artifact and is reported as such; torn or unreadable data anywhere else
// is corruption and the process exits 2 — the CI contract.
//
// With --replay=1 the tool additionally performs the server's actual
// recovery (newest snapshot restore + WAL suffix replay through the real
// Shard code path) and prints each shard's state fingerprint (the hash of
// the shard's snapshot bytes, which hold no counters or timings);
// the scenario/service flags must then match the server that wrote the
// state, or the config guard refuses the snapshot exactly as a restart
// would. Replay truncates torn tails just like a server restart.
//
// With --compare=<dir2> both data dirs are replayed independently and
// `recovered_identical` reports whether every shard fingerprint matches —
// the bit-for-bit recovery check the crash-recovery CI smoke gates.
//
//   audit_state --data_dir=/var/lib/audit                  # verify
//   audit_state --data_dir=d --dump=1                      # per-record dump
//   audit_state --data_dir=d --replay=1 --scenario=uniform --types=5
//   audit_state --data_dir=d1 --compare=d2 --replay=1 --json=BENCH_persist.json
//
// Exit codes: 0 clean (torn newest tail allowed), 1 usage/config error,
// 2 corruption or fingerprint mismatch.
#include <sys/stat.h>

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scenario/generator.h"
#include "server/audit_server.h"
#include "server/binary_codec.h"
#include "server/durability.h"
#include "server/shard.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

using namespace auditgame;  // NOLINT

struct ShardInspection {
  int shard = 0;
  uint64_t snapshots = 0;
  uint64_t last_snapshot_seq = 0;
  uint64_t snapshot_wal_lsn = 0;
  uint64_t wal_segments = 0;
  uint64_t wal_records = 0;
  uint64_t last_lsn = 0;
  bool torn_tail = false;       // legal crash artifact (newest segment)
  std::string torn_reason;
  std::vector<std::string> errors;  // real corruption
  std::string fingerprint;          // replay mode only

  bool corrupt() const { return !errors.empty(); }
};

int CountShardDirs(const std::string& data_dir) {
  int n = 0;
  for (;; ++n) {
    struct stat st;
    const std::string dir = server::ShardPersistence::ShardDir(data_dir, n);
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) break;
  }
  return n;
}

/// Best-effort verb label for --dump (binary frames carry a verb byte,
/// JSON payloads a "verb" key; anything else is opaque).
std::string VerbLabel(const std::string& payload) {
  if (server::IsBinaryFrame(payload)) {
    if (auto request = server::DecodeBinaryRequest(payload); request.ok()) {
      return request->verb == server::Verb::kIngest ? "ingest(bin)"
                                                    : "solve_cycle(bin)";
    }
    return "binary(undecodable)";
  }
  if (auto doc = util::JsonValue::Parse(payload); doc.ok()) {
    if (auto verb = doc->GetString("verb"); verb.ok()) return *verb;
  }
  return "opaque";
}

ShardInspection InspectShard(const std::string& data_dir, int shard,
                             bool dump) {
  ShardInspection report;
  report.shard = shard;
  const std::string dir = server::ShardPersistence::ShardDir(data_dir, shard);

  const std::vector<std::string> snapshots =
      server::ListNumberedFiles(dir, "snapshot-", ".snap");
  report.snapshots = snapshots.size();
  bool have_snapshot = false;
  for (const std::string& name : snapshots) {
    auto contents = server::ReadSnapshotFile(dir + "/" + name);
    if (!contents.ok()) {
      // Snapshots are written to .tmp and renamed, so a listed .snap that
      // fails to verify is disk damage, not a crash artifact.
      report.errors.push_back(contents.status().ToString());
      continue;
    }
    if (contents->shard != static_cast<uint32_t>(shard)) {
      report.errors.push_back(dir + "/" + name + ": belongs to shard " +
                              std::to_string(contents->shard));
      continue;
    }
    // Newest last in the sorted list: remember the one recovery would use.
    report.last_snapshot_seq = contents->seq;
    report.snapshot_wal_lsn = contents->wal_lsn;
    have_snapshot = true;
    if (dump) {
      std::cout << "shard " << shard << " " << name << ": seq "
                << contents->seq << ", wal_lsn " << contents->wal_lsn
                << ", body " << contents->body.size() << " bytes\n";
    }
  }

  const std::vector<std::string> segments =
      server::ListNumberedFiles(dir, "wal-", ".wal");
  report.wal_segments = segments.size();
  uint64_t min_start_lsn = 0;
  uint64_t previous_last_lsn = 0;
  bool have_records = false;
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string path = dir + "/" + segments[i];
    auto scan = server::ScanWalSegment(
        path, dump ? std::function<void(const server::WalRecord&)>(
                         [&](const server::WalRecord& record) {
                           std::cout << "shard " << shard << " lsn "
                                     << record.lsn << ": "
                                     << record.payload.size() << " bytes "
                                     << VerbLabel(record.payload) << "\n";
                         })
                   : nullptr);
    if (!scan.ok()) {
      report.errors.push_back(scan.status().ToString());
      continue;
    }
    if (scan->shard != static_cast<uint32_t>(shard)) {
      report.errors.push_back(path + ": belongs to shard " +
                              std::to_string(scan->shard));
      continue;
    }
    if (!scan->torn_reason.empty()) {
      if (i + 1 == segments.size()) {
        report.torn_tail = true;  // the legal kill -9 artifact
        report.torn_reason = scan->torn_reason;
      } else {
        report.errors.push_back(path + ": corrupt non-final segment (" +
                                scan->torn_reason + ")");
      }
    }
    if (have_records && scan->records > 0 &&
        scan->start_lsn != previous_last_lsn + 1) {
      report.errors.push_back(path + ": inter-segment LSN gap (starts at " +
                              std::to_string(scan->start_lsn) +
                              " after segment ending at " +
                              std::to_string(previous_last_lsn) + ")");
    }
    if (scan->records > 0) {
      if (!have_records) min_start_lsn = scan->start_lsn;
      previous_last_lsn = scan->last_lsn;
      have_records = true;
      report.last_lsn = scan->last_lsn;
    }
    report.wal_records += scan->records;
  }

  // Coverage: every record past the newest snapshot must still exist, or
  // replay cannot reach the pre-crash state.
  if (have_snapshot && have_records && report.last_lsn > report.snapshot_wal_lsn &&
      min_start_lsn > report.snapshot_wal_lsn + 1) {
    report.errors.push_back(
        dir + ": WAL starts at LSN " + std::to_string(min_start_lsn) +
        " but the newest snapshot covers only through " +
        std::to_string(report.snapshot_wal_lsn) + " (replay gap)");
  }
  if (!have_snapshot && have_records && min_start_lsn != 1) {
    report.errors.push_back(dir + ": no usable snapshot and WAL starts at LSN " +
                            std::to_string(min_start_lsn) + ", not 1");
  }
  return report;
}

/// Runs the real recovery path (Shard + ShardPersistence) for each shard
/// and records the post-recovery state fingerprint.
util::Status ReplayShards(const std::string& data_dir, int num_shards,
                          const core::GameInstance& base_instance,
                          const service::AuditServiceOptions& service_options,
                          std::vector<ShardInspection>& reports) {
  server::DurabilityOptions durability;
  durability.data_dir = data_dir;
  for (int i = 0; i < num_shards; ++i) {
    server::Shard shard(
        i, base_instance, service_options, /*queue_capacity=*/1,
        /*max_batch=*/1, [](std::vector<server::Shard::Response>) {}, [] {},
        std::make_unique<server::ShardPersistence>(i, durability));
    RETURN_IF_ERROR(shard.Recover());
    reports[static_cast<size_t>(i)].fingerprint =
        shard.StateFingerprint().ToHex();
  }
  return util::OkStatus();
}

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("data_dir", "", "audit_server durability root to inspect");
  flags.Define("dump", "0", "print every snapshot and WAL record");
  flags.Define("replay", "0",
               "run the real recovery (snapshot restore + WAL replay) and "
               "print per-shard state fingerprints; requires the scenario/"
               "service flags to match the server that wrote the state");
  flags.Define("compare", "",
               "second data_dir: replay both and check the fingerprints "
               "match (implies --replay)");
  flags.Define("json", "", "write a machine-readable report here");
  flags.Define("loadgen_json", "",
               "fold answered_ratio from this loadgen report into --json "
               "(the CI gate rides in one file)");
  scenario::DefineScenarioFlags(flags, /*default_scenario=*/"uniform",
                                /*default_types=*/"5");
  server::DefineServiceFlags(flags);
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status << "\n" << flags.HelpString(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpString(argv[0]);
    return 0;
  }
  const std::string data_dir = flags.GetString("data_dir");
  if (data_dir.empty()) {
    std::cerr << "--data_dir is required\n";
    return 1;
  }
  const bool dump = flags.GetInt("dump") != 0;
  const std::string compare_dir = flags.GetString("compare");
  const bool replay = flags.GetInt("replay") != 0 || !compare_dir.empty();

  const int num_shards = CountShardDirs(data_dir);
  if (num_shards == 0) {
    std::cerr << "audit_state: no shard-<i> directories under " << data_dir
              << "\n";
    return 2;
  }

  std::vector<ShardInspection> reports;
  reports.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    reports.push_back(InspectShard(data_dir, i, dump));
  }

  bool recovered_identical = true;
  std::vector<ShardInspection> compare_reports;
  if (replay) {
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
    auto service_options = server::ServiceOptionsFromFlags(flags);
    if (!service_options.ok()) {
      std::cerr << service_options.status() << "\n";
      return 1;
    }

    if (util::Status replayed =
            ReplayShards(data_dir, num_shards, *instance, *service_options,
                         reports);
        !replayed.ok()) {
      std::cerr << "audit_state: replay of " << data_dir
                << " failed: " << replayed << "\n";
      return 2;
    }
    if (!compare_dir.empty()) {
      const int compare_shards = CountShardDirs(compare_dir);
      if (compare_shards != num_shards) {
        std::cerr << "audit_state: " << compare_dir << " has "
                  << compare_shards << " shards, " << data_dir << " has "
                  << num_shards << "\n";
        return 2;
      }
      for (int i = 0; i < num_shards; ++i) {
        compare_reports.push_back(InspectShard(compare_dir, i, /*dump=*/false));
      }
      if (util::Status replayed =
              ReplayShards(compare_dir, num_shards, *instance, *service_options,
                           compare_reports);
          !replayed.ok()) {
        std::cerr << "audit_state: replay of " << compare_dir
                  << " failed: " << replayed << "\n";
        return 2;
      }
      for (int i = 0; i < num_shards; ++i) {
        const size_t n = static_cast<size_t>(i);
        if (reports[n].fingerprint != compare_reports[n].fingerprint) {
          recovered_identical = false;
          std::cerr << "audit_state: shard " << i << " fingerprints differ: "
                    << reports[n].fingerprint << " vs "
                    << compare_reports[n].fingerprint << "\n";
        }
      }
    }
  }

  bool corrupt = false;
  uint64_t total_records = 0;
  for (const ShardInspection& r : reports) {
    std::cerr << "shard " << r.shard << ": " << r.snapshots << " snapshot(s)";
    if (r.last_snapshot_seq > 0) {
      std::cerr << " (newest seq " << r.last_snapshot_seq << " through LSN "
                << r.snapshot_wal_lsn << ")";
    }
    std::cerr << ", " << r.wal_segments << " WAL segment(s), "
              << r.wal_records << " record(s) through LSN " << r.last_lsn;
    if (r.torn_tail) std::cerr << ", torn tail (" << r.torn_reason << ")";
    if (!r.fingerprint.empty()) std::cerr << ", fingerprint " << r.fingerprint;
    std::cerr << "\n";
    for (const std::string& error : r.errors) {
      std::cerr << "  CORRUPT: " << error << "\n";
    }
    corrupt = corrupt || r.corrupt();
    total_records += r.wal_records;
  }
  for (const ShardInspection& r : compare_reports) {
    corrupt = corrupt || r.corrupt();
  }

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    util::JsonValue::Object body;
    body["bench"] = "persist";
    body["data_dir"] = data_dir;
    body["num_shards"] = num_shards;
    body["wal_records_total"] = static_cast<double>(total_records);
    body["verify_clean"] = !corrupt;
    if (!compare_dir.empty()) {
      body["recovered_identical"] = recovered_identical && !corrupt;
    }
    const std::string loadgen_json = flags.GetString("loadgen_json");
    if (!loadgen_json.empty()) {
      std::ifstream in(loadgen_json);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      auto doc = util::JsonValue::Parse(text);
      if (!doc.ok()) {
        std::cerr << "audit_state: cannot parse " << loadgen_json << ": "
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
    util::JsonValue::Array shards;
    for (const ShardInspection& r : reports) {
      util::JsonValue::Object obj;
      obj["shard"] = r.shard;
      obj["snapshots"] = static_cast<double>(r.snapshots);
      obj["last_snapshot_seq"] = static_cast<double>(r.last_snapshot_seq);
      obj["wal_segments"] = static_cast<double>(r.wal_segments);
      obj["wal_records"] = static_cast<double>(r.wal_records);
      obj["last_lsn"] = static_cast<double>(r.last_lsn);
      obj["torn_tail"] = r.torn_tail;
      obj["corrupt"] = r.corrupt();
      if (!r.fingerprint.empty()) obj["fingerprint"] = r.fingerprint;
      shards.push_back(std::move(obj));
    }
    body["shards"] = std::move(shards);
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << util::JsonValue(std::move(body)).Dump(2) << "\n";
  }

  if (corrupt) return 2;
  if (!recovered_identical) return 2;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
