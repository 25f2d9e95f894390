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
#include <string_view>
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

TEST(SnapshotFileTest, ZeroLengthFileIsAShortHeader) {
  TempDir dir("snapshot_empty");
  const std::string path = dir.path() + "/snapshot-00000000000000000001.snap";
  WriteFile(path, "");
  const auto contents = ReadSnapshotFile(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(contents.status().message().find("short snapshot header"),
            std::string::npos)
      << contents.status();
}

TEST(SnapshotFileTest, MissingFileIsNotFound) {
  TempDir dir("snapshot_missing");
  const auto contents =
      ReadSnapshotFile(dir.path() + "/snapshot-00000000000000000009.snap");
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), util::StatusCode::kNotFound);
}

TEST(SnapshotFileTest, MultiMebibyteBodyRoundTrips) {
  TempDir dir("snapshot_large");
  const std::string path = dir.path() + "/snapshot-00000000000000000002.snap";
  // 3 MiB plus an odd tail, so the read and the CRC both end mid-block.
  std::string body((3u << 20) + 13, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (char& c : body) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  ASSERT_TRUE(WriteSnapshotFile(path, /*shard=*/2, /*seq=*/2, /*wal_lsn=*/9,
                                body)
                  .ok());
  const auto contents = ReadSnapshotFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->wal_lsn, 9u);
  EXPECT_TRUE(contents->body == body);
}

std::string MakeSegment(uint32_t shard, uint64_t start_lsn,
                        const std::vector<std::string>& payloads) {
  std::string data = EncodeWalSegmentHeader(shard, start_lsn);
  uint64_t lsn = start_lsn;
  for (const std::string& payload : payloads) {
    AppendWalRecord(&data, lsn++, payload);
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
  std::string with_tail = intact;
  AppendWalRecord(&with_tail, 3, "torn-payload");
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
  std::string record1;
  AppendWalRecord(&record1, 1, "aaaa");
  data[header + record1.size() + 16 + 1] ^= 0x40;  // second record's payload
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
  AppendWalRecord(&data, 1, "one");
  AppendWalRecord(&data, 3, "three");  // skips LSN 2
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

/// `n` deterministic bytes; the fixtures below were made from these.
std::string FixtureBytes(size_t n, int seed) {
  std::string bytes;
  for (size_t i = 0; i < n; ++i) {
    bytes.push_back(static_cast<char>((i * 37 + seed * 11 + 5) & 0xFF));
  }
  return bytes;
}

// A shard-1 data dir written by a build whose CRC-32 ran one byte per
// step: a snapshot (seq 1, wal_lsn 2, a 77-byte body) and a WAL segment
// holding LSNs 1-4 with 1-, 8-, 13- and 64-byte payloads, so the CRCs
// cover short inputs, whole 8-byte blocks and block tails. Recovering it
// shows the slicing-by-8 CRC kept every value.
constexpr std::string_view kBytewiseSnapshot{
    "\x41\x47\x53\x4e\x41\x50\x31\x0a\x00\x00\x00\x01\x00\x00\x00\x01"
    "\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02"
    "\x00\x00\x00\x00\x00\x00\x00\x4d\x00\x2c\x20\xac\xc7\x47\x6f\x3f"
    "\x10\x35\x5a\x7f\xa4\xc9\xee\x13\x38\x5d\x82\xa7\xcc\xf1\x16\x3b"
    "\x60\x85\xaa\xcf\xf4\x19\x3e\x63\x88\xad\xd2\xf7\x1c\x41\x66\x8b"
    "\xb0\xd5\xfa\x1f\x44\x69\x8e\xb3\xd8\xfd\x22\x47\x6c\x91\xb6\xdb"
    "\x00\x25\x4a\x6f\x94\xb9\xde\x03\x28\x4d\x72\x97\xbc\xe1\x06\x2b"
    "\x50\x75\x9a\xbf\xe4\x09\x2e\x53\x78\x9d\xc2\xe7\x0c",
    125};
constexpr std::string_view kBytewiseWal{
    "\x41\x47\x57\x41\x4c\x31\x0a\x00\x00\x00\x00\x01\x00\x00\x00\x01"
    "\x00\x00\x00\x00\x00\x00\x00\x01\xb1\x95\x25\xe1\x00\x00\x00\x01"
    "\xe2\xa5\x35\x8b\x00\x00\x00\x00\x00\x00\x00\x01\x10\x00\x00\x00"
    "\x08\x6c\x6a\x7a\xf3\x00\x00\x00\x00\x00\x00\x00\x02\x5d\x82\xa7"
    "\xcc\xf1\x16\x3b\x60\x00\x00\x00\x0d\xe4\xaf\x11\xd9\x00\x00\x00"
    "\x00\x00\x00\x00\x03\x94\xb9\xde\x03\x28\x4d\x72\x97\xbc\xe1\x06"
    "\x2b\x50\x00\x00\x00\x40\x68\x65\x7a\xec\x00\x00\x00\x00\x00\x00"
    "\x00\x04\xc5\xea\x0f\x34\x59\x7e\xa3\xc8\xed\x12\x37\x5c\x81\xa6"
    "\xcb\xf0\x15\x3a\x5f\x84\xa9\xce\xf3\x18\x3d\x62\x87\xac\xd1\xf6"
    "\x1b\x40\x65\x8a\xaf\xd4\xf9\x1e\x43\x68\x8d\xb2\xd7\xfc\x21\x46"
    "\x6b\x90\xb5\xda\xff\x24\x49\x6e\x93\xb8\xdd\x02\x27\x4c\x71\x96"
    "\xbb\xe0",
    178};

TEST(ShardPersistenceTest, DataDirFromTheBytewiseCrcBuildRecovers) {
  TempDir dir("persist_bytewise");
  const std::string shard_dir = dir.path() + "/shard-1";
  ::mkdir(shard_dir.c_str(), 0777);
  WriteFile(shard_dir + "/snapshot-00000000000000000001.snap",
            std::string(kBytewiseSnapshot));
  WriteFile(shard_dir + "/wal-00000000000000000001.wal",
            std::string(kBytewiseWal));

  std::string restored_body;
  std::vector<std::string> replayed;
  ShardPersistence persistence(1, TestOptions(dir.path()));
  ASSERT_TRUE(persistence
                  .Recover(
                      [&](const SnapshotContents& snapshot) {
                        restored_body = snapshot.body;
                        return util::OkStatus();
                      },
                      [&](const WalRecord& record) {
                        replayed.push_back(record.payload);
                        return util::OkStatus();
                      })
                  .ok());
  EXPECT_EQ(restored_body, FixtureBytes(77, 1));
  EXPECT_EQ(replayed, (std::vector<std::string>{FixtureBytes(13, 13),
                                                FixtureBytes(64, 64)}));
  EXPECT_EQ(persistence.next_lsn(), 5u);

  // This build writes the same bytes, CRCs included.
  const std::string path = dir.path() + "/snapshot-00000000000000000001.snap";
  ASSERT_TRUE(WriteSnapshotFile(path, /*shard=*/1, /*seq=*/1, /*wal_lsn=*/2,
                                FixtureBytes(77, 1))
                  .ok());
  EXPECT_EQ(ReadFile(path), kBytewiseSnapshot);
  std::string wal = EncodeWalSegmentHeader(/*shard=*/1, /*start_lsn=*/1);
  uint64_t lsn = 1;
  for (size_t len : {1, 8, 13, 64}) {
    AppendWalRecord(&wal, lsn++, FixtureBytes(len, static_cast<int>(len)));
  }
  EXPECT_EQ(wal, kBytewiseWal);
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
    EXPECT_EQ(persistence.Stats().last_snapshot_bytes, 0u);
    // Snapshot reflecting LSNs 1..3 only.
    ASSERT_TRUE(persistence.FinalSnapshot("state-after-3", 3).ok());
    EXPECT_EQ(persistence.Stats().last_snapshot_bytes, 13u);
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
  // The recovered snapshot's body size, until the next snapshot.
  EXPECT_EQ(persistence.Stats().last_snapshot_bytes, 13u);
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
  std::string torn;
  AppendWalRecord(&torn, 2, "torn-record");
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

// The prune step keeps the LSN of the snapshot recovery restored: after
// one more snapshot lands, that one is the oldest retained, and falling
// back to it must still find every WAL record past its LSN.
TEST(ShardPersistenceTest, RecoveredSnapshotKeepsTheWalItNeeds) {
  TempDir dir("persist_keep_after_recovery");
  DurabilityOptions options = TestOptions(dir.path());
  options.wal_segment_bytes = 256;  // several segments per snapshot
  const std::string shard_dir = ShardPersistence::ShardDir(dir.path(), 0);
  const auto append = [](ShardPersistence& persistence, int first, int last) {
    for (int lsn = first; lsn <= last; ++lsn) {
      ASSERT_TRUE(persistence
                      .AppendWal("payload-payload-payload-" +
                                 std::to_string(lsn))
                      .ok());
      ASSERT_TRUE(persistence.CommitBatch().ok());
    }
  };
  const auto recover = [](ShardPersistence& persistence, std::string* body,
                          int* replayed) {
    return persistence.Recover(
        [body](const SnapshotContents& snapshot) {
          *body = snapshot.body;
          return util::OkStatus();
        },
        [replayed](const WalRecord&) {
          ++*replayed;
          return util::OkStatus();
        });
  };
  {
    ShardPersistence persistence(0, options);
    std::string body;
    int replayed = 0;
    ASSERT_TRUE(recover(persistence, &body, &replayed).ok());
    append(persistence, 1, 16);
    ASSERT_TRUE(persistence.FinalSnapshot("through-16", 16).ok());
    append(persistence, 17, 32);
  }
  {
    ShardPersistence persistence(0, options);
    std::string body;
    int replayed = 0;
    ASSERT_TRUE(recover(persistence, &body, &replayed).ok());
    EXPECT_EQ(body, "through-16");
    EXPECT_EQ(replayed, 16);
    append(persistence, 33, 48);
    ASSERT_TRUE(persistence.FinalSnapshot("through-48", 48).ok());
  }
  const std::vector<std::string> snapshots =
      ListNumberedFiles(shard_dir, "snapshot-", ".snap");
  ASSERT_EQ(snapshots.size(), 2u);
  // The segments wholly below LSN 17 were pruned.
  const std::vector<std::string> segments =
      ListNumberedFiles(shard_dir, "wal-", ".wal");
  ASSERT_FALSE(segments.empty());
  EXPECT_NE(segments.front(), "wal-00000000000000000001.wal");

  // Tear the newest snapshot: recovery falls back to the older one and
  // replays LSNs 17-48 from the segments the prune kept.
  const std::string newest = shard_dir + "/" + snapshots.back();
  std::string torn = ReadFile(newest);
  torn.back() ^= 0x01;
  WriteFile(newest, torn);
  ShardPersistence persistence(0, options);
  std::string body;
  int replayed = 0;
  const util::Status recovered = recover(persistence, &body, &replayed);
  ASSERT_TRUE(recovered.ok()) << recovered;
  EXPECT_EQ(body, "through-16");
  EXPECT_EQ(replayed, 32);
  EXPECT_EQ(persistence.next_lsn(), 49u);
}

TEST(ShardPersistenceDeathTest, ZeroSnapshotsToKeepIsRefused) {
  DurabilityOptions options = TestOptions("persist_never_created");
  options.snapshots_to_keep = 0;
  EXPECT_DEATH(ShardPersistence(0, options), "snapshots_to_keep");
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
      {"--data_dir=/var/lib/audit", "--wal_sync=none",
       "--snapshot_interval=2.5", "--snapshot_every=7", "--wal_segment_mb=1",
       "--snapshot_on_drain=0"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->data_dir, "/var/lib/audit");
  EXPECT_EQ(options->wal_sync, WalSync::kNone);
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
        "--wal_segment_mb=-64", "--wal_sync=sometimes",
        "--wal_sync=always"}) {
    auto options = ParseDurability({bad});
    EXPECT_FALSE(options.ok()) << bad;
    EXPECT_EQ(options.status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(ShardPersistenceTest, WalSyncNames) {
  EXPECT_STREQ(WalSyncName(WalSync::kBatch), "batch");
  EXPECT_STREQ(WalSyncName(WalSync::kNone), "none");
  EXPECT_EQ(*WalSyncFromName("batch"), WalSync::kBatch);
  EXPECT_EQ(*WalSyncFromName("none"), WalSync::kNone);
  EXPECT_FALSE(WalSyncFromName("sometimes").ok());
  // The batch commit already makes every acknowledged request durable, so
  // there is no per-record policy: `always` is an unknown name.
  EXPECT_EQ(WalSyncFromName("always").status().code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace auditgame::server
