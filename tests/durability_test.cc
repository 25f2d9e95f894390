// File-format and recovery-invariant tests for the durability layer:
// atomic snapshots, WAL segment scan, torn-tail truncation (every
// byte-truncation of the final record must recover cleanly), segment
// rotation, snapshot/WAL pruning, and the durability flags.
#include "server/durability.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "util/flags.h"

namespace auditgame::server {
namespace {

/// A unique per-test scratch directory under the build tree.
class TempDir {
 public:
  explicit TempDir(const std::string& name) : path_("durability_test_" + name) {
    Remove();
    ::mkdir(path_.c_str(), 0777);
  }
  ~TempDir() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  void Remove() {
    const std::vector<std::string> kinds = {"snapshot-", "wal-"};
    for (const std::string& prefix : kinds) {
      for (const char* suffix : {".snap", ".wal"}) {
        for (const std::string& name :
             ListNumberedFiles(path_, prefix, suffix)) {
          ::unlink((path_ + "/" + name).c_str());
        }
      }
    }
    for (int shard = 0; shard < 8; ++shard) {
      const std::string sub = path_ + "/shard-" + std::to_string(shard);
      for (const std::string& name : ListNumberedFiles(sub, "snapshot-", ".snap"))
        ::unlink((sub + "/" + name).c_str());
      for (const std::string& name : ListNumberedFiles(sub, "wal-", ".wal"))
        ::unlink((sub + "/" + name).c_str());
      ::rmdir(sub.c_str());
    }
    ::rmdir(path_.c_str());
  }
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

TEST(SnapshotFileTest, RoundTrip) {
  TempDir dir("snapshot_roundtrip");
  const std::string path = dir.path() + "/snapshot-00000000000000000007.snap";
  const std::string body = "serialized shard state \x00\x01\x02 with nuls";
  ASSERT_TRUE(WriteSnapshotFile(path, /*shard=*/3, /*seq=*/7, /*wal_lsn=*/42,
                                body)
                  .ok());
  auto contents = ReadSnapshotFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->shard, 3u);
  EXPECT_EQ(contents->seq, 7u);
  EXPECT_EQ(contents->wal_lsn, 42u);
  EXPECT_EQ(contents->body, body);
  // No .tmp left behind.
  struct stat st;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
}

TEST(SnapshotFileTest, CorruptionIsDetected) {
  TempDir dir("snapshot_corrupt");
  const std::string path = dir.path() + "/snapshot-00000000000000000001.snap";
  ASSERT_TRUE(
      WriteSnapshotFile(path, /*shard=*/0, /*seq=*/1, /*wal_lsn=*/5, "body")
          .ok());
  std::string data = ReadFile(path);

  // Flip one body byte: body CRC must catch it.
  std::string bad = data;
  bad.back() ^= 0x01;
  WriteFile(path, bad);
  EXPECT_FALSE(ReadSnapshotFile(path).ok());

  // Flip one header byte: header CRC must catch it.
  bad = data;
  bad[10] ^= 0x01;
  WriteFile(path, bad);
  EXPECT_FALSE(ReadSnapshotFile(path).ok());

  // Truncated body: length check must catch it.
  WriteFile(path, data.substr(0, data.size() - 1));
  EXPECT_FALSE(ReadSnapshotFile(path).ok());

  // Intact bytes still verify (the writer-side data was fine all along).
  WriteFile(path, data);
  EXPECT_TRUE(ReadSnapshotFile(path).ok());
}

std::string MakeSegment(uint32_t shard, uint64_t start_lsn,
                        const std::vector<std::string>& payloads) {
  std::string data = EncodeWalSegmentHeader(shard, start_lsn);
  uint64_t lsn = start_lsn;
  for (const std::string& payload : payloads) {
    data += EncodeWalRecord(lsn++, payload);
  }
  return data;
}

TEST(WalSegmentTest, ScanReadsAllRecordsInOrder) {
  TempDir dir("wal_scan");
  const std::string path = dir.path() + "/wal-00000000000000000005.wal";
  WriteFile(path, MakeSegment(2, 5, {"alpha", "", "gamma"}));

  std::vector<WalRecord> records;
  auto scan = ScanWalSegment(
      path, [&](const WalRecord& record) { records.push_back(record); });
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->shard, 2u);
  EXPECT_EQ(scan->start_lsn, 5u);
  EXPECT_EQ(scan->records, 3u);
  EXPECT_EQ(scan->last_lsn, 7u);
  EXPECT_TRUE(scan->torn_reason.empty());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 5u);
  EXPECT_EQ(records[0].payload, "alpha");
  EXPECT_EQ(records[1].payload, "");
  EXPECT_EQ(records[2].payload, "gamma");
}

TEST(WalSegmentTest, EveryByteTruncationOfLastRecordRecoversCleanly) {
  // The crash-consistency invariant: a kill -9 can cut the final record at
  // ANY byte boundary, and the scan must (a) not error, (b) keep every
  // complete record, (c) report a truncation point that drops only the
  // torn record.
  TempDir dir("wal_torn");
  const std::string intact = MakeSegment(0, 1, {"first", "second"});
  const std::string with_tail = intact + EncodeWalRecord(3, "torn-payload");
  const std::string path = dir.path() + "/wal-00000000000000000001.wal";

  // cut == intact.size() is a clean end-of-segment, not a torn tail.
  {
    WriteFile(path, intact);
    auto scan = ScanWalSegment(path, nullptr);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->records, 2u);
    EXPECT_TRUE(scan->torn_reason.empty());
  }
  for (size_t cut = intact.size() + 1; cut < with_tail.size(); ++cut) {
    WriteFile(path, with_tail.substr(0, cut));
    std::vector<WalRecord> records;
    auto scan = ScanWalSegment(
        path, [&](const WalRecord& record) { records.push_back(record); });
    ASSERT_TRUE(scan.ok()) << "cut at " << cut << ": " << scan.status();
    EXPECT_EQ(scan->records, 2u) << "cut at " << cut;
    EXPECT_EQ(scan->last_lsn, 2u) << "cut at " << cut;
    EXPECT_EQ(scan->valid_bytes, intact.size()) << "cut at " << cut;
    EXPECT_FALSE(scan->torn_reason.empty()) << "cut at " << cut;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].payload, "second");
  }

  // The full record scans clean again.
  WriteFile(path, with_tail);
  auto scan = ScanWalSegment(path, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, 3u);
  EXPECT_TRUE(scan->torn_reason.empty());
}

TEST(WalSegmentTest, CorruptRecordStopsTheScanAtTheLastValidRecord) {
  TempDir dir("wal_bitflip");
  std::string data = MakeSegment(0, 1, {"aaaa", "bbbb", "cccc"});
  // Flip a byte in the middle record's payload.
  const size_t header = EncodeWalSegmentHeader(0, 1).size();
  const size_t record1 = EncodeWalRecord(1, "aaaa").size();
  data[header + record1 + 16 + 1] ^= 0x40;  // second record's payload
  const std::string path = dir.path() + "/wal-00000000000000000001.wal";
  WriteFile(path, data);

  auto scan = ScanWalSegment(path, nullptr);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->records, 1u);
  EXPECT_EQ(scan->last_lsn, 1u);
  EXPECT_FALSE(scan->torn_reason.empty());
}

TEST(WalSegmentTest, LsnDiscontinuityStopsTheScan) {
  TempDir dir("wal_gap");
  std::string data = EncodeWalSegmentHeader(0, 1);
  data += EncodeWalRecord(1, "one");
  data += EncodeWalRecord(3, "three");  // skips LSN 2
  const std::string path = dir.path() + "/wal-00000000000000000001.wal";
  WriteFile(path, data);
  auto scan = ScanWalSegment(path, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, 1u);
  EXPECT_FALSE(scan->torn_reason.empty());
}

TEST(WalSegmentTest, HeaderCorruptionIsAnErrorNotATornTail) {
  TempDir dir("wal_badheader");
  std::string data = MakeSegment(0, 1, {"x"});
  data[9] ^= 0x01;  // inside the header, after the magic
  const std::string path = dir.path() + "/wal-00000000000000000001.wal";
  WriteFile(path, data);
  EXPECT_FALSE(ScanWalSegment(path, nullptr).ok());
}

DurabilityOptions TestOptions(const std::string& data_dir) {
  DurabilityOptions options;
  options.data_dir = data_dir;
  options.wal_sync = WalSync::kNone;  // tests don't need real fsyncs
  options.snapshot_every_records = 0;
  options.snapshot_interval_seconds = 0;
  return options;
}

TEST(ShardPersistenceTest, AppendCommitRecoverRoundTrip) {
  TempDir dir("persist_roundtrip");
  std::vector<std::string> seen;
  {
    ShardPersistence persistence(0, TestOptions(dir.path()));
    ASSERT_TRUE(persistence
                    .Recover([](const SnapshotContents&) {
                      return util::OkStatus();
                    },
                             [](const WalRecord&) { return util::OkStatus(); })
                    .ok());
    EXPECT_EQ(persistence.next_lsn(), 1u);
    for (const char* payload : {"r1", "r2", "r3"}) {
      auto lsn = persistence.AppendWal(payload);
      ASSERT_TRUE(lsn.ok()) << lsn.status();
    }
    ASSERT_TRUE(persistence.CommitBatch().ok());
    EXPECT_EQ(persistence.next_lsn(), 4u);
  }
  {
    ShardPersistence persistence(0, TestOptions(dir.path()));
    ASSERT_TRUE(persistence
                    .Recover(
                        [](const SnapshotContents&) {
                          ADD_FAILURE() << "no snapshot was written";
                          return util::OkStatus();
                        },
                        [&](const WalRecord& record) {
                          seen.push_back(record.payload);
                          return util::OkStatus();
                        })
                    .ok());
    EXPECT_EQ(persistence.next_lsn(), 4u);
    EXPECT_EQ(persistence.Stats().recovery_replayed, 3u);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"r1", "r2", "r3"}));
}

TEST(ShardPersistenceTest, SnapshotSkipsReplayedPrefix) {
  TempDir dir("persist_snapshot");
  {
    ShardPersistence persistence(0, TestOptions(dir.path()));
    ASSERT_TRUE(persistence
                    .Recover([](const SnapshotContents&) {
                      return util::OkStatus();
                    },
                             [](const WalRecord&) { return util::OkStatus(); })
                    .ok());
    for (const char* payload : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(persistence.AppendWal(payload).ok());
      ASSERT_TRUE(persistence.CommitBatch().ok());
    }
    // Snapshot reflecting LSNs 1..3 only.
    ASSERT_TRUE(persistence.FinalSnapshot("state-after-3", 3).ok());
  }
  std::vector<std::string> replayed;
  bool restored = false;
  ShardPersistence persistence(0, TestOptions(dir.path()));
  ASSERT_TRUE(persistence
                  .Recover(
                      [&](const SnapshotContents& snapshot) {
                        restored = true;
                        EXPECT_EQ(snapshot.body, "state-after-3");
                        EXPECT_EQ(snapshot.wal_lsn, 3u);
                        return util::OkStatus();
                      },
                      [&](const WalRecord& record) {
                        replayed.push_back(record.payload);
                        return util::OkStatus();
                      })
                  .ok());
  EXPECT_TRUE(restored);
  EXPECT_EQ(replayed, (std::vector<std::string>{"d"}));
  EXPECT_EQ(persistence.next_lsn(), 5u);
}

TEST(ShardPersistenceTest, TornTailIsTruncatedOnRecovery) {
  TempDir dir("persist_torn");
  std::string wal_path;
  {
    ShardPersistence persistence(0, TestOptions(dir.path()));
    ASSERT_TRUE(persistence
                    .Recover([](const SnapshotContents&) {
                      return util::OkStatus();
                    },
                             [](const WalRecord&) { return util::OkStatus(); })
                    .ok());
    ASSERT_TRUE(persistence.AppendWal("keep-me").ok());
    ASSERT_TRUE(persistence.CommitBatch().ok());
  }
  const std::string shard_dir = ShardPersistence::ShardDir(dir.path(), 0);
  const auto segments = ListNumberedFiles(shard_dir, "wal-", ".wal");
  ASSERT_EQ(segments.size(), 1u);
  wal_path = shard_dir + "/" + segments[0];

  // Simulate the kill -9: append half a record by hand.
  const std::string full = ReadFile(wal_path);
  const std::string torn = EncodeWalRecord(2, "torn-record");
  WriteFile(wal_path, full + torn.substr(0, torn.size() / 2));

  std::vector<std::string> replayed;
  {
    ShardPersistence persistence(0, TestOptions(dir.path()));
    ASSERT_TRUE(persistence
                    .Recover([](const SnapshotContents&) {
                      return util::OkStatus();
                    },
                             [&](const WalRecord& record) {
                               replayed.push_back(record.payload);
                               return util::OkStatus();
                             })
                    .ok());
    EXPECT_EQ(replayed, (std::vector<std::string>{"keep-me"}));
    EXPECT_EQ(persistence.next_lsn(), 2u);
  }
  // The torn bytes are gone from disk: a later scan is clean.
  EXPECT_EQ(ReadFile(wal_path), full);
  auto scan = ScanWalSegment(wal_path, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_reason.empty());
}

TEST(ShardPersistenceTest, SegmentsRotateAndPrune) {
  TempDir dir("persist_rotate");
  DurabilityOptions options = TestOptions(dir.path());
  options.wal_segment_bytes = 256;  // force rotation quickly
  options.snapshots_to_keep = 1;
  const std::string shard_dir = ShardPersistence::ShardDir(dir.path(), 0);
  {
    ShardPersistence persistence(0, options);
    ASSERT_TRUE(persistence
                    .Recover([](const SnapshotContents&) {
                      return util::OkStatus();
                    },
                             [](const WalRecord&) { return util::OkStatus(); })
                    .ok());
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          persistence.AppendWal("payload-payload-payload-" + std::to_string(i))
              .ok());
      ASSERT_TRUE(persistence.CommitBatch().ok());
    }
    EXPECT_GT(ListNumberedFiles(shard_dir, "wal-", ".wal").size(), 2u);
    // A snapshot covering everything lets pruning drop all but the active
    // segment, and retention keeps exactly one snapshot.
    ASSERT_TRUE(persistence.FinalSnapshot("all-32", 32).ok());
    ASSERT_TRUE(persistence.FinalSnapshot("all-32-again", 32).ok());
  }
  EXPECT_EQ(ListNumberedFiles(shard_dir, "snapshot-", ".snap").size(), 1u);
  EXPECT_EQ(ListNumberedFiles(shard_dir, "wal-", ".wal").size(), 1u);

  // Everything still recovers: snapshot + empty-or-short suffix.
  ShardPersistence persistence(0, options);
  bool restored = false;
  ASSERT_TRUE(persistence
                  .Recover(
                      [&](const SnapshotContents& snapshot) {
                        restored = true;
                        EXPECT_EQ(snapshot.body, "all-32-again");
                        return util::OkStatus();
                      },
                      [](const WalRecord&) { return util::OkStatus(); })
                  .ok());
  EXPECT_TRUE(restored);
  EXPECT_EQ(persistence.next_lsn(), 33u);
}

TEST(ShardPersistenceTest, CorruptNonFinalSegmentRefusesRecovery) {
  TempDir dir("persist_midcorrupt");
  DurabilityOptions options = TestOptions(dir.path());
  options.wal_segment_bytes = 128;
  {
    ShardPersistence persistence(0, options);
    ASSERT_TRUE(persistence
                    .Recover([](const SnapshotContents&) {
                      return util::OkStatus();
                    },
                             [](const WalRecord&) { return util::OkStatus(); })
                    .ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          persistence.AppendWal("long-enough-payload-to-rotate-segments-" +
                                std::to_string(i))
              .ok());
      ASSERT_TRUE(persistence.CommitBatch().ok());
    }
  }
  const std::string shard_dir = ShardPersistence::ShardDir(dir.path(), 0);
  const auto segments = ListNumberedFiles(shard_dir, "wal-", ".wal");
  ASSERT_GE(segments.size(), 2u);
  // Chop the FIRST segment: that is corruption, not a crash artifact.
  const std::string first = shard_dir + "/" + segments[0];
  const std::string data = ReadFile(first);
  WriteFile(first, data.substr(0, data.size() - 3));

  ShardPersistence persistence(0, options);
  EXPECT_FALSE(persistence
                   .Recover([](const SnapshotContents&) {
                     return util::OkStatus();
                   },
                            [](const WalRecord&) { return util::OkStatus(); })
                   .ok());
}

util::StatusOr<DurabilityOptions> ParseDurability(
    std::vector<std::string> args) {
  util::FlagParser flags;
  DefineDurabilityFlags(flags);
  RETURN_IF_ERROR(testutil::ParseArgs(flags, std::move(args)));
  return DurabilityOptionsFromFlags(flags);
}

TEST(DurabilityFlagsTest, DefaultsMatchTheOptionsStruct) {
  auto options = ParseDurability({});
  ASSERT_TRUE(options.ok()) << options.status();
  const DurabilityOptions defaults;
  EXPECT_EQ(options->data_dir, "");
  EXPECT_FALSE(options->enabled());
  EXPECT_EQ(options->wal_sync, defaults.wal_sync);
  EXPECT_EQ(options->snapshot_interval_seconds,
            defaults.snapshot_interval_seconds);
  EXPECT_EQ(options->snapshot_every_records, defaults.snapshot_every_records);
  EXPECT_EQ(options->wal_segment_bytes, defaults.wal_segment_bytes);
  EXPECT_EQ(options->snapshot_on_drain, defaults.snapshot_on_drain);
}

TEST(DurabilityFlagsTest, ExplicitValuesPassThrough) {
  auto options = ParseDurability(
      {"--data_dir=/var/lib/audit", "--wal_sync=always",
       "--snapshot_interval=2.5", "--snapshot_every=7", "--wal_segment_mb=1",
       "--snapshot_on_drain=0"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->data_dir, "/var/lib/audit");
  EXPECT_EQ(options->wal_sync, WalSync::kAlways);
  EXPECT_EQ(options->snapshot_interval_seconds, 2.5);
  EXPECT_EQ(options->snapshot_every_records, 7u);
  EXPECT_EQ(options->wal_segment_bytes, 1ull << 20);
  EXPECT_FALSE(options->snapshot_on_drain);
}

TEST(DurabilityFlagsTest, ZeroStillMeansNeverForBothTriggers) {
  auto options =
      ParseDurability({"--snapshot_interval=0", "--snapshot_every=0"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->snapshot_interval_seconds, 0.0);
  EXPECT_EQ(options->snapshot_every_records, 0u);
}

TEST(DurabilityFlagsTest, BadValuesAreRejectedNotClamped) {
  // A sign typo used to turn snapshots off (every restart replays the whole
  // WAL), and a segment size <= 0 silently became 1 MiB.
  for (const char* bad :
       {"--snapshot_interval=-1", "--snapshot_every=-1", "--wal_segment_mb=0",
        "--wal_segment_mb=-64", "--wal_sync=sometimes"}) {
    auto options = ParseDurability({bad});
    EXPECT_FALSE(options.ok()) << bad;
    EXPECT_EQ(options.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(ShardPersistenceTest, WalSyncNames) {
  EXPECT_STREQ(WalSyncName(WalSync::kBatch), "batch");
  ASSERT_TRUE(WalSyncFromName("always").ok());
  EXPECT_EQ(*WalSyncFromName("none"), WalSync::kNone);
  EXPECT_FALSE(WalSyncFromName("sometimes").ok());
}

}  // namespace
}  // namespace auditgame::server
