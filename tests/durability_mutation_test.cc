// Seeded mutation test for the two durability readers that recovery runs
// on whatever a crash left on disk: ScanWalSegment and ReadSnapshotFile.
// From one valid WAL segment and one valid snapshot file it derives a fixed
// count of mutants (bit flips, truncations, insertions, deletions,
// duplicated or rewritten length and LSN fields) with a fixed seed.
//  * A WAL mutant must either fail the header check with a non-OK status,
//    or scan to records that are a prefix of the originals, with the valid
//    bytes (the truncation point) equal to the original's bytes.
//  * A snapshot mutant that differs from the original must be rejected.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "server/durability.h"
#include "tests/byte_mutator.h"

namespace auditgame::server {
namespace {

constexpr uint64_t kSeed = 0xd0ab1e2026;
constexpr int kMutants = 2000;
constexpr size_t kWalHeaderBytes = 28;  // see durability.h
constexpr size_t kSnapshotHeaderBytes = 48;

// Replaces the file by a new one: truncating it in place instead makes
// ext4 flush the rewritten file on close, ~40 ms per mutant.
void WriteFile(const std::string& path, const std::string& bytes) {
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

using Span = std::pair<size_t, size_t>;  // [begin, end)

// One mutant of `bytes`: a bit flip, truncation, insertion or deletion, a
// copy of one of `spans` inserted anywhere, or a rewritten `fields` entry.
std::string Mutate(testutil::ByteMutator& mutator, const std::string& bytes,
                   const std::vector<testutil::Field>& fields,
                   const std::vector<Span>& spans) {
  std::string out = bytes;
  const size_t kind = mutator.Below(testutil::ByteMutator::kGenericKinds + 2);
  if (kind < testutil::ByteMutator::kGenericKinds) {
    mutator.Apply(kind, &out);
  } else if (kind == testutil::ByteMutator::kGenericKinds) {
    const auto [begin, end] = spans[mutator.Below(spans.size())];
    out.insert(mutator.Below(out.size() + 1), bytes.substr(begin, end - begin));
  } else {
    mutator.RewriteField(fields[mutator.Below(fields.size())], &out);
  }
  return out;
}

TEST(DurabilityMutationTest, WalMutantsFailTheHeaderOrScanToAPrefix) {
  const std::string path = "durability_mutation_test.wal";
  std::vector<WalRecord> originals;
  std::string segment = EncodeWalSegmentHeader(/*shard=*/3, /*start_lsn=*/100);
  std::vector<testutil::Field> fields = {{12, 4}, {16, 8}};  // shard, start_lsn
  std::vector<Span> records;
  uint64_t lsn = 100;
  for (const size_t size : {0, 1, 40, 300, 7, 120}) {
    WalRecord record;
    record.lsn = lsn++;
    record.payload.assign(size, static_cast<char>('a' + size % 26));
    const size_t at = segment.size();
    fields.push_back({at, 4});      // payload length
    fields.push_back({at + 8, 8});  // LSN
    AppendWalRecord(&segment, record.lsn, record.payload);
    records.emplace_back(at, segment.size());
    originals.push_back(record);
  }

  testutil::ByteMutator mutator(kSeed);
  int header_rejected = 0;
  int torn = 0;
  int whole = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(mutator, segment, fields, records);
    WriteFile(path, mutant);
    std::vector<WalRecord> scanned;
    const auto scan =
        ScanWalSegment(path, [&scanned](const WalRecord& record) {
          scanned.push_back(record);
        });
    if (!scan.ok()) {
      // Only the segment header may fail the scan.
      EXPECT_NE(mutant.substr(0, kWalHeaderBytes),
                segment.substr(0, kWalHeaderBytes))
          << "mutant " << i << ": " << scan.status();
      EXPECT_TRUE(scanned.empty()) << "mutant " << i;
      ++header_rejected;
      continue;
    }
    ASSERT_LE(scanned.size(), originals.size()) << "mutant " << i;
    for (size_t r = 0; r < scanned.size(); ++r) {
      EXPECT_EQ(scanned[r].lsn, originals[r].lsn) << "mutant " << i;
      EXPECT_EQ(scanned[r].payload, originals[r].payload) << "mutant " << i;
    }
    EXPECT_EQ(scan->records, scanned.size()) << "mutant " << i;
    EXPECT_EQ(scan->start_lsn, 100u) << "mutant " << i;
    EXPECT_EQ(scan->last_lsn, 99u + scanned.size()) << "mutant " << i;
    // Recovery truncates to valid_bytes: those bytes must be the original's.
    ASSERT_LE(scan->valid_bytes, mutant.size()) << "mutant " << i;
    EXPECT_EQ(mutant.substr(0, scan->valid_bytes),
              segment.substr(0, scan->valid_bytes))
        << "mutant " << i;
    if (scan->torn_reason.empty()) {
      EXPECT_EQ(scan->valid_bytes, mutant.size()) << "mutant " << i;
      ++whole;
    } else {
      ++torn;
    }
  }
  std::remove(path.c_str());
  // A mutator that only ever hits one outcome tests nothing.
  EXPECT_GT(header_rejected, kMutants / 50);
  EXPECT_GT(torn, kMutants / 5);
  EXPECT_GT(whole, 0);
}

TEST(DurabilityMutationTest, ChangedSnapshotMutantsAreRejected) {
  const std::string path = "durability_mutation_test.snap";
  std::string body;
  for (int i = 0; i < 500; ++i) body.push_back(static_cast<char>(i * 37));
  ASSERT_TRUE(WriteSnapshotFile(path, /*shard=*/2, /*seq=*/9, /*wal_lsn=*/41,
                                body)
                  .ok());
  const std::string original = ReadFile(path);
  ASSERT_EQ(original.size(), kSnapshotHeaderBytes + body.size());
  // Version, shard, seq, wal_lsn, body length and the two CRCs.
  const std::vector<testutil::Field> fields = {
      {8, 4}, {12, 4}, {16, 8}, {24, 8}, {32, 8}, {40, 4}, {44, 4}};
  const std::vector<Span> spans = {
      {0, kSnapshotHeaderBytes}, {kSnapshotHeaderBytes, 100}, {300, 548}};

  testutil::ByteMutator mutator(kSeed);
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(mutator, original, fields, spans);
    WriteFile(path, mutant);
    const auto contents = ReadSnapshotFile(path);
    if (mutant != original) {
      EXPECT_FALSE(contents.ok()) << "mutant " << i << " was accepted";
      ++rejected;
      continue;
    }
    ASSERT_TRUE(contents.ok()) << "mutant " << i << ": " << contents.status();
    EXPECT_EQ(contents->shard, 2u);
    EXPECT_EQ(contents->seq, 9u);
    EXPECT_EQ(contents->wal_lsn, 41u);
    EXPECT_EQ(contents->body, body);
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, kMutants * 9 / 10);
}

}  // namespace
}  // namespace auditgame::server
