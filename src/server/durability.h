#ifndef AUDIT_GAME_SERVER_DURABILITY_H_
#define AUDIT_GAME_SERVER_DURABILITY_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/flags.h"
#include "util/percentile.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::server {

/// WAL fsync policy — when appended records are forced to stable storage
/// relative to the response leaving the server.
///
///   kNone   never fsyncs: records reach the OS page cache before the
///           response, so a process kill loses nothing but a machine crash
///           may lose the tail.
///   kBatch  (default) one fdatasync per shard micro-batch — the group
///           commit: every response in a batch waits for one sync, so the
///           hot path pays ~1/batch_size of a sync per request. The shard
///           commits each batch before applying it, so every acknowledged
///           request is already durable.
enum class WalSync { kNone, kBatch };

const char* WalSyncName(WalSync sync);
util::StatusOr<WalSync> WalSyncFromName(std::string_view name);

struct DurabilityOptions {
  /// Root directory; each shard uses `<data_dir>/shard-<i>/`. Empty
  /// disables durability entirely (no files, no WAL copies of payloads).
  std::string data_dir;
  WalSync wal_sync = WalSync::kBatch;
  /// Snapshot cadence: after this many WAL records since the last snapshot
  /// (0 = never by count) ...
  uint64_t snapshot_every_records = 4096;
  /// ... or this many seconds, whichever comes first (0 = never by time).
  /// Either trigger still requires at least one new record.
  double snapshot_interval_seconds = 30.0;
  /// WAL segment rotation threshold.
  uint64_t wal_segment_bytes = 64ull << 20;
  /// Snapshots retained per shard, at least 1; older ones are pruned after
  /// a newer snapshot lands (≥ 2 keeps a fallback if the newest is torn).
  int snapshots_to_keep = 2;
  /// Take a final synchronous snapshot when the shard drains cleanly.
  /// Tests set false to force the next start through WAL replay.
  bool snapshot_on_drain = true;

  bool enabled() const { return !data_dir.empty(); }
};

/// Defines the durability flags of the serving tools: --data_dir,
/// --wal_sync, --snapshot_interval, --snapshot_every, --wal_segment_mb and
/// --snapshot_on_drain, with DurabilityOptions' defaults.
void DefineDurabilityFlags(util::FlagParser& flags);

/// Resolves the flags defined by DefineDurabilityFlags. Rejects an unknown
/// --wal_sync, a negative --snapshot_interval or --snapshot_every (0 keeps
/// its "never" meaning) and a --wal_segment_mb below 1, instead of
/// clamping them into a different policy.
util::StatusOr<DurabilityOptions> DurabilityOptionsFromFlags(
    const util::FlagParser& flags);

/// ---- File formats (shared with tools/audit_state) ----------------------
///
/// Snapshot `snapshot-<seq>.snap` (written to .tmp, fsync'd, renamed):
///
///   8  magic "AGSNAP1\n"
///   u32 format version (kSnapshotFormatVersion)
///   u32 shard index
///   u64 snapshot sequence number
///   u64 wal_lsn: last WAL record already reflected in the body (replay
///       resumes at wal_lsn + 1)
///   u64 body length
///   u32 CRC-32 of the body
///   u32 CRC-32 of all preceding header bytes
///   body (a Serializer stream of the shard state)
///
/// WAL segment `wal-<start_lsn>.wal`:
///
///   8  magic "AGWAL1\n\0"
///   u32 format version (kWalFormatVersion)
///   u32 shard index
///   u64 start_lsn: LSN of the first record in this segment
///   u32 CRC-32 of all preceding header bytes
///
/// then records, each:
///
///   u32 payload length
///   u32 CRC-32 over (big-endian LSN bytes + payload)
///   u64 LSN (contiguous: start_lsn, start_lsn+1, ...)
///   payload (the verbatim wire bytes of the ingest/solve_cycle request)
///
/// Recovery invariant: any byte-prefix of a segment is recoverable — the
/// scan stops at the first record whose header is short, whose length is
/// implausible, whose CRC mismatches, or whose LSN breaks contiguity, and
/// the writer truncates the file back to the last valid record.

inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr uint32_t kWalFormatVersion = 1;
inline constexpr std::string_view kSnapshotMagic = "AGSNAP1\n";
inline constexpr std::string_view kWalMagic{"AGWAL1\n\0", 8};
/// Sanity cap on a single WAL record; anything larger is treated as a torn
/// length field (real payloads are bounded by the frame-size limit, which
/// is far smaller).
inline constexpr uint32_t kMaxWalRecordPayload = 256u << 20;

struct SnapshotContents {
  uint32_t shard = 0;
  uint64_t seq = 0;
  uint64_t wal_lsn = 0;
  std::string body;
};

/// Reads and fully verifies one snapshot file (both CRCs).
util::StatusOr<SnapshotContents> ReadSnapshotFile(const std::string& path);

/// Writes a snapshot atomically: `<path>.tmp`, fsync, rename, fsync dir.
util::Status WriteSnapshotFile(const std::string& path, uint32_t shard,
                               uint64_t seq, uint64_t wal_lsn,
                               std::string_view body);

struct WalRecord {
  uint64_t lsn = 0;
  std::string payload;
};

struct WalSegmentScan {
  uint32_t shard = 0;
  uint64_t start_lsn = 0;
  uint64_t records = 0;
  uint64_t last_lsn = 0;  // start_lsn - 1 when the segment is empty
  /// Byte offset just past the last valid record — the truncation point.
  uint64_t valid_bytes = 0;
  /// Non-empty when the scan stopped before end-of-file (the torn tail's
  /// diagnosis); empty means the whole file was valid.
  std::string torn_reason;
};

/// Scans one WAL segment, invoking `on_record` (may be null) for each valid
/// record in order. Returns the scan summary; only header-level corruption
/// (bad magic/version/CRC) is an error — a torn record tail is a normal
/// outcome reported via `torn_reason`.
util::StatusOr<WalSegmentScan> ScanWalSegment(
    const std::string& path,
    const std::function<void(const WalRecord&)>& on_record);

/// Appends one encoded WAL record to `out` (the scan's inverse).
void AppendWalRecord(std::string* out, uint64_t lsn, std::string_view payload);
/// Encodes a segment header; exposed for tests.
std::string EncodeWalSegmentHeader(uint32_t shard, uint64_t start_lsn);

/// Lists `prefix`-named files in `dir` sorted ascending by their numeric
/// suffix (e.g. "wal-" → every wal-<n>.wal). Missing dir = empty list.
std::vector<std::string> ListNumberedFiles(const std::string& dir,
                                           std::string_view prefix,
                                           std::string_view suffix);

/// Point-in-time persistence counters, merged into the shard's stats.
struct PersistenceStats {
  uint64_t last_snapshot_seq = 0;
  /// Body bytes (the serialized shard state) of the newest snapshot this
  /// process wrote or recovered from; 0 before the first.
  uint64_t last_snapshot_bytes = 0;
  /// Live WAL records: survivors of recovery plus appends since.
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_segments = 0;
  uint64_t snapshots_written = 0;
  uint64_t wal_syncs = 0;
  /// Group-commit fsync latency percentiles (seconds) over a bounded
  /// window of the most recent WAL syncs — the cost each committed batch
  /// pays under --wal_sync=batch. Zero
  /// until the first sync; `wal_syncs` counts every sync of this process.
  util::Percentiles fsync_seconds;
  uint64_t recovery_replayed = 0;
  double recovery_seconds = 0.0;
  /// LSN of the last record reflected in the recovered state (snapshot or
  /// replay, whichever is newer).
  uint64_t recovery_wal_lsn = 0;
  /// Hex state fingerprint right after recovery — the cross-process
  /// bit-for-bit verification hook (set by the shard, not this layer).
  std::string recovery_fingerprint;
  std::string wal_sync;
};

/// Per-shard durability engine: WAL append/commit on the shard thread, a
/// background writer thread for snapshots (the hot path never blocks on a
/// snapshot's write+fsync), and the startup recovery scan.
///
/// Threading: Recover() runs before the shard thread starts. AppendWal()/
/// CommitBatch()/ShouldSnapshot()/SnapshotAsync()/FinalSnapshot() are
/// shard-thread-only. Stats() is safe from any thread.
class ShardPersistence {
 public:
  /// `options.snapshots_to_keep` must be at least 1 (AuditServer::Start
  /// refuses less).
  ShardPersistence(int shard_index, DurabilityOptions options);
  ~ShardPersistence();

  ShardPersistence(const ShardPersistence&) = delete;
  ShardPersistence& operator=(const ShardPersistence&) = delete;

  /// Recovers state from disk: picks the newest snapshot that verifies
  /// (falling back to older ones), hands its body to `restore`, then
  /// replays every WAL record past the snapshot through `apply`, truncates
  /// any torn tail, and positions the writer at the next LSN. `restore` is
  /// skipped when no usable snapshot exists (recovery is then a full WAL
  /// replay into the shard's initial state).
  util::Status Recover(
      const std::function<util::Status(const SnapshotContents&)>& restore,
      const std::function<util::Status(const WalRecord&)>& apply);

  /// Buffers one record until CommitBatch(). Returns the record's LSN.
  util::StatusOr<uint64_t> AppendWal(std::string_view payload);

  /// Flushes buffered records and applies the sync policy. Call once per
  /// micro-batch, after appends, before responses are released. A failed
  /// write or sync drops the buffered records, and their LSNs stay spent:
  /// after any failure of AppendWal() or CommitBatch() the caller must
  /// append nothing more (Shard fences itself) and restart from recovery.
  util::Status CommitBatch();

  /// True when the snapshot cadence (records or seconds) has elapsed and a
  /// snapshot is not already in flight.
  bool ShouldSnapshot();

  /// Hands a serialized state body to the background writer; never blocks
  /// on IO. `wal_lsn` is the last LSN reflected in the body.
  void SnapshotAsync(std::string body, uint64_t wal_lsn);

  /// Synchronous snapshot (the clean-drain path); waits for any async
  /// snapshot in flight first.
  util::Status FinalSnapshot(std::string body, uint64_t wal_lsn);

  /// Records the shard's post-recovery state fingerprint for Stats().
  void SetRecoveryFingerprint(std::string hex);

  uint64_t next_lsn() const { return next_lsn_; }
  const DurabilityOptions& options() const { return options_; }
  const std::string& dir() const { return dir_; }

  PersistenceStats Stats() const;

  /// `<data_dir>/shard-<index>/`, the layout contract with audit_state.
  static std::string ShardDir(const std::string& data_dir, int shard_index);

 private:
  util::Status OpenFreshSegment();
  util::Status WriteAndMaybeSync(std::string_view bytes, bool sync);
  void SnapshotWriterLoop();
  /// Writes one snapshot + prunes old snapshots and fully-covered WAL
  /// segments. Runs on the writer thread (or inline for FinalSnapshot).
  util::Status WriteSnapshotAndPrune(uint64_t seq, uint64_t wal_lsn,
                                     const std::string& body);

  const int shard_index_;
  const DurabilityOptions options_;
  const std::string dir_;

  // Shard-thread state (no lock needed).
  int wal_fd_ = -1;
  std::string wal_path_;
  uint64_t next_lsn_ = 1;
  uint64_t segment_bytes_ = 0;
  std::string pending_;
  uint64_t pending_records_ = 0;
  uint64_t records_since_snapshot_ = 0;
  std::chrono::steady_clock::time_point last_snapshot_time_;
  uint64_t next_snapshot_seq_ = 1;

  // Shared counters (stats_mutex_). Stats() summarizes a copy of the
  // fsync window and reads `wal_syncs` from its count.
  mutable std::mutex stats_mutex_;
  PersistenceStats stats_;
  util::LatencyWindow fsync_seconds_{1024};

  // Snapshot writer thread. `job_` is a latest-wins mailbox: a newer
  // snapshot replaces a queued-but-unstarted older one.
  struct SnapshotJob {
    uint64_t seq = 0;
    uint64_t wal_lsn = 0;
    std::string body;
  };
  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  std::optional<SnapshotJob> job_;
  bool job_running_ = false;
  bool writer_exit_ = false;
  std::thread writer_;

  /// The WAL LSN of the retained snapshots, by sequence number: the
  /// writer records each one it writes, and Recover() the one it
  /// restores. A retained snapshot missing here (one that failed to
  /// verify, or one older than the snapshot recovery restored, which it
  /// does not read) has an unknown LSN and keeps every WAL segment.
  /// Written by Recover() and then only by WriteSnapshotAndPrune(), whose
  /// callers the job mailbox serializes.
  std::map<uint64_t, uint64_t> snapshot_lsns_;
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_DURABILITY_H_
