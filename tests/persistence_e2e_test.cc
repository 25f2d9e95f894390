// End-to-end durability: a shard that snapshots and WAL-logs its ingest
// stream, is torn down mid-workload, and is recovered by a fresh shard
// must (a) reach the exact snapshot bytes of an uninterrupted run and
// (b) answer the remaining workload with identical responses (modulo
// wall-clock timing fields).
#include <sys/stat.h>
#include <unistd.h>

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/binary_codec.h"
#include "server/durability.h"
#include "server/shard.h"
#include "tests/test_util.h"

namespace auditgame::server {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& name) : path_("persist_e2e_" + name) {
    Remove();
    ::mkdir(path_.c_str(), 0777);
  }
  ~TempDir() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  void Remove() {
    for (int shard = 0; shard < 4; ++shard) {
      const std::string sub = path_ + "/shard-" + std::to_string(shard);
      for (const std::string& name :
           ListNumberedFiles(sub, "snapshot-", ".snap"))
        ::unlink((sub + "/" + name).c_str());
      for (const std::string& name : ListNumberedFiles(sub, "wal-", ".wal"))
        ::unlink((sub + "/" + name).c_str());
      ::rmdir(sub.c_str());
    }
    ::rmdir(path_.c_str());
  }
  std::string path_;
};

service::AuditServiceOptions FastOptions() {
  service::AuditServiceOptions options;
  options.budgets = {2.0, 3.0};
  options.solver_options.ishm.step_size = 0.25;
  return options;
}

/// Thread-safe response sink keyed by request id (one shard keeps each
/// tenant's responses in submission order; ids make the pairing explicit).
class Collector {
 public:
  void operator()(std::vector<Shard::Response> responses) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Shard::Response& response : responses) {
      const int64_t id = BinaryCorrelationIdOf(response.payload);
      ASSERT_GE(id, 0);
      by_id_[id] = std::move(response.payload);
    }
  }
  std::map<int64_t, std::string> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(by_id_);
  }

 private:
  std::mutex mutex_;
  std::map<int64_t, std::string> by_id_;
};

/// The response with its wall-clock field zeroed: an ok solve_cycle
/// response embeds the cycle's wall time (the f64 after the 15-byte header
/// and the u64 cycle), which legitimately differs between runs.
std::string Normalized(std::string payload) {
  auto response = DecodeBinaryResponse(payload);
  if (!response.ok()) return "<undecodable>";
  if (response->verb == kBinaryVerbSolveCycle &&
      response->status == kBinaryStatusOk) {
    payload.replace(15 + 8, 8, 8, '\0');
  }
  return payload;
}

/// One task built exactly as the server's IO thread would: decode the wire
/// payload, keep the verbatim bytes for the WAL.
ShardTask MakeTask(const std::string& payload, bool durable) {
  auto request = DecodeBinaryRequest(payload);
  EXPECT_TRUE(request.ok()) << request.status();
  ShardTask task;
  task.conn_id = 1;
  task.request = std::move(*request);
  if (durable) task.wal_payload = payload;
  return task;
}

/// The workload: `cycles` rounds of (ingest, solve_cycle) for two tenants,
/// with per-cycle drift in the alert counts so the runs exercise cold
/// solves, warm solves and cache hits. Returns the wire payloads in
/// submission order; ids are globally unique and encode the position.
std::vector<std::string> MakeWorkload(int first_cycle, int cycles) {
  std::vector<std::string> payloads;
  int64_t id = first_cycle * 100;
  for (int cycle = first_cycle; cycle < first_cycle + cycles; ++cycle) {
    for (const std::string tenant : {"acme", "zeta"}) {
      std::vector<prob::CountDistribution> distributions = {
          prob::CountDistribution::Constant(2 + cycle % 3),
          prob::CountDistribution::Constant(2 + (cycle + 1) % 2)};
      payloads.push_back(
          EncodeBinaryIngestRequest(id++, tenant, distributions));
      payloads.push_back(EncodeBinarySolveCycleRequest(id++, tenant));
    }
  }
  return payloads;
}

void RunAll(Shard& shard, const std::vector<std::string>& payloads,
            bool durable) {
  shard.Start();
  for (const std::string& payload : payloads) {
    while (!shard.TrySubmit(MakeTask(payload, durable))) {
      std::this_thread::yield();
    }
  }
  shard.BeginDrain();
  shard.Join();
}

DurabilityOptions Durable(const std::string& data_dir) {
  DurabilityOptions options;
  options.data_dir = data_dir;
  options.wal_sync = WalSync::kNone;  // durability logic, not disk latency
  options.snapshot_every_records = 3;  // force a mid-run snapshot + suffix
  options.snapshot_interval_seconds = 0;
  return options;
}

TEST(PersistenceE2eTest, InterruptedRunRecoversBitForBit) {
  const core::GameInstance game = testutil::MakeTinyGame();
  const auto cycle0 = MakeWorkload(0, 1);
  const auto cycle1 = MakeWorkload(1, 1);
  const auto second_half = MakeWorkload(2, 2);

  // Reference: one uninterrupted, non-durable shard over the full stream.
  Collector reference_sink;
  util::Fingerprint reference_fp;
  std::string reference_state;
  std::map<int64_t, std::string> reference_responses;
  {
    Shard reference(0, game, FastOptions(), /*queue_capacity=*/8,
                    /*max_batch=*/4, std::ref(reference_sink), nullptr);
    auto all = cycle0;
    all.insert(all.end(), cycle1.begin(), cycle1.end());
    all.insert(all.end(), second_half.begin(), second_half.end());
    RunAll(reference, all, /*durable=*/false);
    reference_fp = reference.StateFingerprint();
    reference_state = reference.SerializeState();
    reference_responses = reference_sink.Take();
  }

  // Run A, phase 1: durable shard over the first cycle, drained with a
  // final snapshot.
  TempDir dir("bitforbit");
  {
    Shard a(0, game, FastOptions(), /*queue_capacity=*/8, /*max_batch=*/4,
            [](std::vector<Shard::Response>) {}, nullptr,
            std::make_unique<ShardPersistence>(0, Durable(dir.path())));
    ASSERT_TRUE(a.Recover().ok());
    RunAll(a, cycle0, /*durable=*/true);
    const auto stats = a.Snapshot();
    EXPECT_TRUE(stats.durability);
    EXPECT_EQ(stats.wal_errors, 0);
    EXPECT_EQ(stats.persistence.wal_records, cycle0.size());
  }
  // Phase 2: recover, serve the second cycle, and go down WITHOUT any
  // snapshot — the kill -9 shape. Recovery below must restore phase 1's
  // snapshot and replay phase 2's records from the WAL suffix.
  {
    DurabilityOptions options = Durable(dir.path());
    options.snapshot_on_drain = false;
    options.snapshot_every_records = 0;
    Shard a(0, game, FastOptions(), /*queue_capacity=*/8, /*max_batch=*/4,
            [](std::vector<Shard::Response>) {}, nullptr,
            std::make_unique<ShardPersistence>(0, options));
    ASSERT_TRUE(a.Recover().ok());
    RunAll(a, cycle1, /*durable=*/true);
  }

  // Run B: a fresh shard recovers and serves the second half.
  Collector recovered_sink;
  Shard b(0, game, FastOptions(), /*queue_capacity=*/8, /*max_batch=*/4,
          std::ref(recovered_sink), nullptr,
          std::make_unique<ShardPersistence>(0, Durable(dir.path())));
  ASSERT_TRUE(b.Recover().ok());
  EXPECT_EQ(b.persistence()->Stats().recovery_replayed, cycle1.size());
  RunAll(b, second_half, /*durable=*/true);

  // The recovered shard ends in the reference's exact state: the same
  // snapshot bytes (no counter or timing differs, though this process
  // batched and replayed differently) and so the same fingerprint...
  const std::string recovered_state = b.SerializeState();
  EXPECT_TRUE(recovered_state == reference_state)
      << "recovered snapshot bytes (" << recovered_state.size()
      << ") differ from the reference's (" << reference_state.size() << ")";
  EXPECT_EQ(b.StateFingerprint(), reference_fp);

  // ...and answered the second half identically (timing fields aside).
  const auto recovered_responses = recovered_sink.Take();
  ASSERT_EQ(recovered_responses.size(), second_half.size());
  for (const auto& [id, payload] : recovered_responses) {
    auto it = reference_responses.find(id);
    ASSERT_NE(it, reference_responses.end()) << "id " << id;
    EXPECT_EQ(Normalized(payload), Normalized(it->second)) << "id " << id;
  }
}

TEST(PersistenceE2eTest, DrainSnapshotAloneRecovers) {
  // Graceful-shutdown shape: snapshot_on_drain=true writes a final
  // snapshot covering the full WAL, so recovery replays nothing.
  const core::GameInstance game = testutil::MakeTinyGame();
  const auto workload = MakeWorkload(0, 2);
  TempDir dir("drain");
  util::Fingerprint fp_a;
  {
    Shard a(0, game, FastOptions(), /*queue_capacity=*/8, /*max_batch=*/4,
            [](std::vector<Shard::Response>) {}, nullptr,
            std::make_unique<ShardPersistence>(0, Durable(dir.path())));
    ASSERT_TRUE(a.Recover().ok());
    RunAll(a, workload, /*durable=*/true);
    fp_a = a.StateFingerprint();
  }
  Shard b(0, game, FastOptions(), /*queue_capacity=*/8, /*max_batch=*/4,
          [](std::vector<Shard::Response>) {}, nullptr,
          std::make_unique<ShardPersistence>(0, Durable(dir.path())));
  ASSERT_TRUE(b.Recover().ok());
  EXPECT_EQ(b.persistence()->Stats().recovery_replayed, 0u);
  EXPECT_EQ(b.StateFingerprint(), fp_a);
}

TEST(PersistenceE2eTest, RecoveryRefusesConfigMismatch) {
  const core::GameInstance game = testutil::MakeTinyGame();
  TempDir dir("mismatch");
  {
    Shard a(0, game, FastOptions(), /*queue_capacity=*/8, /*max_batch=*/4,
            [](std::vector<Shard::Response>) {}, nullptr,
            std::make_unique<ShardPersistence>(0, Durable(dir.path())));
    ASSERT_TRUE(a.Recover().ok());
    RunAll(a, MakeWorkload(0, 1), /*durable=*/true);
  }
  // Same data, different solver configuration: state recorded under one
  // config must not silently replay under another.
  service::AuditServiceOptions different = FastOptions();
  different.solver_options.ishm.step_size = 0.5;
  Shard b(0, game, different, /*queue_capacity=*/8, /*max_batch=*/4,
          [](std::vector<Shard::Response>) {}, nullptr,
          std::make_unique<ShardPersistence>(0, Durable(dir.path())));
  const util::Status status = b.Recover();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition) << status;
}

}  // namespace
}  // namespace auditgame::server
