#include "server/durability.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/percentile.h"
#include "util/serializer.h"

namespace auditgame::server {
namespace {

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v >> 24));
  out->push_back(static_cast<char>(v >> 16));
  out->push_back(static_cast<char>(v >> 8));
  out->push_back(static_cast<char>(v));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v >> 32));
  PutU32(out, static_cast<uint32_t>(v));
}

uint32_t GetU32(std::string_view data, size_t pos) {
  return (uint32_t{static_cast<unsigned char>(data[pos])} << 24) |
         (uint32_t{static_cast<unsigned char>(data[pos + 1])} << 16) |
         (uint32_t{static_cast<unsigned char>(data[pos + 2])} << 8) |
         uint32_t{static_cast<unsigned char>(data[pos + 3])};
}

uint64_t GetU64(std::string_view data, size_t pos) {
  return (uint64_t{GetU32(data, pos)} << 32) | GetU32(data, pos + 4);
}

util::Status ErrnoError(const std::string& what) {
  return util::InternalError(what + ": " + std::strerror(errno));
}

util::Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST) {
    return util::OkStatus();
  }
  return ErrnoError("mkdir " + path);
}

util::Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("open dir " + dir);
  util::Status status = util::OkStatus();
  if (::fsync(fd) != 0) status = ErrnoError("fsync dir " + dir);
  ::close(fd);
  return status;
}

util::StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::NotFoundError("cannot open " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) return util::InternalError("read failed: " + path);
  return contents;
}

std::string NumberedName(std::string_view prefix, uint64_t n,
                         std::string_view suffix) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(n));
  return std::string(prefix) + buf + std::string(suffix);
}

/// Fixed per-record overhead: u32 len + u32 crc + u64 lsn.
constexpr size_t kWalRecordHeader = 16;
/// Segment header: magic + u32 version + u32 shard + u64 start_lsn + u32 crc.
constexpr size_t kWalSegmentHeader = 8 + 4 + 4 + 8 + 4;
/// Snapshot header: magic + u32 ver + u32 shard + u64 seq + u64 lsn +
/// u64 body_len + u32 body_crc + u32 header_crc.
constexpr size_t kSnapshotHeader = 8 + 4 + 4 + 8 + 8 + 8 + 4 + 4;

std::string LsnBytes(uint64_t lsn) {
  std::string bytes;
  bytes.reserve(8);
  PutU64(&bytes, lsn);
  return bytes;
}

}  // namespace

const char* WalSyncName(WalSync sync) {
  switch (sync) {
    case WalSync::kNone:
      return "none";
    case WalSync::kBatch:
      return "batch";
    case WalSync::kAlways:
      return "always";
  }
  return "unknown";
}

util::StatusOr<WalSync> WalSyncFromName(std::string_view name) {
  if (name == "none") return WalSync::kNone;
  if (name == "batch") return WalSync::kBatch;
  if (name == "always") return WalSync::kAlways;
  return util::InvalidArgumentError("unknown wal_sync '" + std::string(name) +
                                    "' (none|batch|always)");
}

void DefineDurabilityFlags(util::FlagParser& flags) {
  flags.Define("data_dir", "",
               "durability root: per-shard snapshots + ingest WAL under "
               "<data_dir>/shard-<i>/; startup recovers from it (empty = "
               "no durability)");
  flags.Define("wal_sync", "batch",
               "WAL fsync policy: none (page cache only), batch (one "
               "fdatasync per shard micro-batch — the group commit), "
               "always (per record)");
  flags.Define("snapshot_interval", "30",
               "seconds between per-shard background snapshots (0 = never "
               "by time)");
  flags.Define("snapshot_every", "4096",
               "WAL records between per-shard snapshots (0 = never by "
               "count)");
  flags.Define("wal_segment_mb", "64", "WAL segment rotation size in MiB");
  flags.Define("snapshot_on_drain", "1",
               "take a final snapshot on clean drain (0 forces the next "
               "start through WAL replay)");
}

util::StatusOr<DurabilityOptions> DurabilityOptionsFromFlags(
    const util::FlagParser& flags) {
  DurabilityOptions options;
  options.data_dir = flags.GetString("data_dir");
  ASSIGN_OR_RETURN(options.wal_sync,
                   WalSyncFromName(flags.GetString("wal_sync")));
  const double interval = flags.GetDouble("snapshot_interval");
  if (!(interval >= 0.0)) {
    return util::InvalidArgumentError(
        "--snapshot_interval must be >= 0 (0 = never by time), got " +
        flags.GetString("snapshot_interval"));
  }
  options.snapshot_interval_seconds = interval;
  const int every = flags.GetInt("snapshot_every");
  if (every < 0) {
    return util::InvalidArgumentError(
        "--snapshot_every must be >= 0 (0 = never by count), got " +
        std::to_string(every));
  }
  options.snapshot_every_records = static_cast<uint64_t>(every);
  const int segment_mb = flags.GetInt("wal_segment_mb");
  if (segment_mb < 1) {
    return util::InvalidArgumentError(
        "--wal_segment_mb must be at least 1, got " +
        std::to_string(segment_mb));
  }
  options.wal_segment_bytes = static_cast<uint64_t>(segment_mb) << 20;
  options.snapshot_on_drain = flags.GetInt("snapshot_on_drain") != 0;
  return options;
}

util::Status WriteSnapshotFile(const std::string& path, uint32_t shard,
                               uint64_t seq, uint64_t wal_lsn,
                               std::string_view body) {
  std::string header;
  header.reserve(kSnapshotHeader);
  header.append(kSnapshotMagic);
  PutU32(&header, kSnapshotFormatVersion);
  PutU32(&header, shard);
  PutU64(&header, seq);
  PutU64(&header, wal_lsn);
  PutU64(&header, body.size());
  PutU32(&header, util::Crc32(body));
  PutU32(&header, util::Crc32(header));

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  if (fd < 0) return ErrnoError("open " + tmp);
  auto write_all = [fd](std::string_view bytes) -> util::Status {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoError("write snapshot");
      }
      off += static_cast<size_t>(n);
    }
    return util::OkStatus();
  };
  util::Status status = write_all(header);
  if (status.ok()) status = write_all(body);
  if (status.ok() && ::fsync(fd) != 0) status = ErrnoError("fsync " + tmp);
  ::close(fd);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const util::Status err = ErrnoError("rename " + tmp);
    ::unlink(tmp.c_str());
    return err;
  }
  // The rename itself must be durable, or a crash can forget the newest
  // snapshot while its WAL segments were already pruned.
  const size_t slash = path.rfind('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

util::StatusOr<SnapshotContents> ReadSnapshotFile(const std::string& path) {
  ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
  if (data.size() < kSnapshotHeader) {
    return util::InvalidArgumentError(path + ": short snapshot header");
  }
  if (std::string_view(data).substr(0, 8) != kSnapshotMagic) {
    return util::InvalidArgumentError(path + ": bad snapshot magic");
  }
  const uint32_t header_crc = GetU32(data, kSnapshotHeader - 4);
  if (util::Crc32(std::string_view(data).substr(0, kSnapshotHeader - 4)) !=
      header_crc) {
    return util::InvalidArgumentError(path + ": snapshot header CRC mismatch");
  }
  const uint32_t version = GetU32(data, 8);
  if (version != kSnapshotFormatVersion) {
    return util::InvalidArgumentError(
        path + ": unsupported snapshot format v" + std::to_string(version));
  }
  SnapshotContents contents;
  contents.shard = GetU32(data, 12);
  contents.seq = GetU64(data, 16);
  contents.wal_lsn = GetU64(data, 24);
  const uint64_t body_len = GetU64(data, 32);
  const uint32_t body_crc = GetU32(data, 40);
  if (data.size() != kSnapshotHeader + body_len) {
    return util::InvalidArgumentError(
        path + ": snapshot body length mismatch (header says " +
        std::to_string(body_len) + ", file has " +
        std::to_string(data.size() - kSnapshotHeader) + ")");
  }
  contents.body = data.substr(kSnapshotHeader);
  if (util::Crc32(contents.body) != body_crc) {
    return util::InvalidArgumentError(path + ": snapshot body CRC mismatch");
  }
  return contents;
}

std::string EncodeWalSegmentHeader(uint32_t shard, uint64_t start_lsn) {
  std::string header;
  header.reserve(kWalSegmentHeader);
  header.append(kWalMagic);
  PutU32(&header, kWalFormatVersion);
  PutU32(&header, shard);
  PutU64(&header, start_lsn);
  PutU32(&header, util::Crc32(header));
  return header;
}

std::string EncodeWalRecord(uint64_t lsn, std::string_view payload) {
  std::string record;
  record.reserve(kWalRecordHeader + payload.size());
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU32(&record, util::Crc32Update(util::Crc32(LsnBytes(lsn)), payload));
  PutU64(&record, lsn);
  record.append(payload);
  return record;
}

util::StatusOr<WalSegmentScan> ScanWalSegment(
    const std::string& path,
    const std::function<void(const WalRecord&)>& on_record) {
  ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
  if (data.size() < kWalSegmentHeader) {
    return util::InvalidArgumentError(path + ": short WAL segment header");
  }
  const std::string_view view(data);
  if (view.substr(0, 8) != kWalMagic) {
    return util::InvalidArgumentError(path + ": bad WAL magic");
  }
  if (util::Crc32(view.substr(0, kWalSegmentHeader - 4)) !=
      GetU32(data, kWalSegmentHeader - 4)) {
    return util::InvalidArgumentError(path + ": WAL header CRC mismatch");
  }
  const uint32_t version = GetU32(data, 8);
  if (version != kWalFormatVersion) {
    return util::InvalidArgumentError(path + ": unsupported WAL format v" +
                                      std::to_string(version));
  }
  WalSegmentScan scan;
  scan.shard = GetU32(data, 12);
  scan.start_lsn = GetU64(data, 16);
  scan.last_lsn = scan.start_lsn - 1;
  scan.valid_bytes = kWalSegmentHeader;

  size_t pos = kWalSegmentHeader;
  uint64_t expected_lsn = scan.start_lsn;
  while (pos < data.size()) {
    if (data.size() - pos < kWalRecordHeader) {
      scan.torn_reason = "short record header at offset " + std::to_string(pos);
      break;
    }
    const uint32_t len = GetU32(data, pos);
    if (len > kMaxWalRecordPayload) {
      scan.torn_reason = "implausible record length " + std::to_string(len) +
                         " at offset " + std::to_string(pos);
      break;
    }
    if (data.size() - pos - kWalRecordHeader < len) {
      scan.torn_reason =
          "truncated record payload at offset " + std::to_string(pos);
      break;
    }
    const uint32_t crc = GetU32(data, pos + 4);
    const uint64_t lsn = GetU64(data, pos + 8);
    const std::string_view payload = view.substr(pos + kWalRecordHeader, len);
    if (util::Crc32Update(util::Crc32(LsnBytes(lsn)), payload) != crc) {
      scan.torn_reason = "record CRC mismatch at offset " + std::to_string(pos);
      break;
    }
    if (lsn != expected_lsn) {
      scan.torn_reason = "LSN discontinuity at offset " + std::to_string(pos) +
                         " (found " + std::to_string(lsn) + ", expected " +
                         std::to_string(expected_lsn) + ")";
      break;
    }
    if (on_record) {
      WalRecord record;
      record.lsn = lsn;
      record.payload = std::string(payload);
      on_record(record);
    }
    pos += kWalRecordHeader + len;
    scan.valid_bytes = pos;
    scan.last_lsn = lsn;
    ++scan.records;
    ++expected_lsn;
  }
  return scan;
}

std::vector<std::string> ListNumberedFiles(const std::string& dir,
                                           std::string_view prefix,
                                           std::string_view suffix) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string_view name(entry->d_name);
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.substr(0, prefix.size()) != prefix) continue;
    if (name.substr(name.size() - suffix.size()) != suffix) continue;
    names.emplace_back(name);
  }
  ::closedir(d);
  // Zero-padded fixed-width numbers, so lexicographic == numeric order.
  std::sort(names.begin(), names.end());
  return names;
}

std::string ShardPersistence::ShardDir(const std::string& data_dir,
                                       int shard_index) {
  return data_dir + "/shard-" + std::to_string(shard_index);
}

ShardPersistence::ShardPersistence(int shard_index, DurabilityOptions options)
    : shard_index_(shard_index),
      options_(std::move(options)),
      dir_(ShardDir(options_.data_dir, shard_index)),
      last_snapshot_time_(std::chrono::steady_clock::now()) {
  stats_.wal_sync = WalSyncName(options_.wal_sync);
  writer_ = std::thread([this] { SnapshotWriterLoop(); });
}

ShardPersistence::~ShardPersistence() {
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    writer_exit_ = true;
  }
  job_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

util::Status ShardPersistence::Recover(
    const std::function<util::Status(const SnapshotContents&)>& restore,
    const std::function<util::Status(const WalRecord&)>& apply) {
  const auto start = std::chrono::steady_clock::now();
  RETURN_IF_ERROR(EnsureDir(options_.data_dir));
  RETURN_IF_ERROR(EnsureDir(dir_));

  // Newest snapshot that verifies wins; older ones are the fallback
  // against a torn newest (WriteSnapshotFile makes that unlikely, but
  // disks fail in more ways than rename semantics cover). A snapshot that
  // verifies but whose restore is *refused* (config mismatch) fails
  // recovery outright — silently falling back would replay under the
  // wrong configuration.
  uint64_t snapshot_lsn = 0;
  uint64_t snapshot_seq = 0;
  std::vector<std::string> snapshots =
      ListNumberedFiles(dir_, "snapshot-", ".snap");
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    auto contents = ReadSnapshotFile(dir_ + "/" + *it);
    if (!contents.ok()) continue;
    if (contents->shard != static_cast<uint32_t>(shard_index_)) {
      return util::InternalError(dir_ + "/" + *it + ": snapshot is for shard " +
                                 std::to_string(contents->shard));
    }
    RETURN_IF_ERROR(restore(*contents));
    snapshot_lsn = contents->wal_lsn;
    snapshot_seq = contents->seq;
    break;
  }

  // Replay the WAL suffix. Records at or below the snapshot LSN are
  // already reflected in the restored state and are skipped; a torn tail
  // is legal only in the newest segment (anywhere else is corruption, not
  // a crash artifact).
  uint64_t replayed = 0;
  uint64_t live_records = 0;
  uint64_t live_bytes = 0;
  uint64_t last_lsn = snapshot_lsn;
  const std::vector<std::string> segments =
      ListNumberedFiles(dir_, "wal-", ".wal");
  util::Status replay_status = util::OkStatus();
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string path = dir_ + "/" + segments[i];
    ASSIGN_OR_RETURN(
        const WalSegmentScan scan,
        ScanWalSegment(path, [&](const WalRecord& record) {
          if (!replay_status.ok() || record.lsn <= snapshot_lsn) return;
          if (record.lsn != last_lsn + 1) {
            replay_status = util::InternalError(
                "WAL gap: " + path + " reaches LSN " +
                std::to_string(record.lsn) + " but recovered state ends at " +
                std::to_string(last_lsn));
            return;
          }
          replay_status = apply(record);
          if (replay_status.ok()) {
            last_lsn = record.lsn;
            ++replayed;
          }
        }));
    RETURN_IF_ERROR(replay_status);
    if (scan.shard != static_cast<uint32_t>(shard_index_)) {
      return util::InternalError(path + ": WAL segment belongs to shard " +
                                 std::to_string(scan.shard));
    }
    if (!scan.torn_reason.empty()) {
      if (i + 1 != segments.size()) {
        return util::InternalError(path + ": corrupt non-final WAL segment (" +
                                   scan.torn_reason + ")");
      }
      // The crash artifact: truncate the tail back to the last valid
      // record so the file never confuses a later scan.
      if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) !=
          0) {
        return ErrnoError("truncate " + path);
      }
    }
    live_records += scan.records;
    live_bytes += scan.valid_bytes;
  }

  next_lsn_ = std::max(snapshot_lsn, last_lsn) + 1;
  next_snapshot_seq_ = snapshot_seq + 1;
  last_snapshot_time_ = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.last_snapshot_seq = snapshot_seq;
  stats_.wal_records = live_records;
  stats_.wal_bytes = live_bytes;
  stats_.wal_segments = segments.size();
  stats_.recovery_replayed = replayed;
  stats_.recovery_wal_lsn = last_lsn;
  stats_.recovery_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return util::OkStatus();
}

util::Status ShardPersistence::OpenFreshSegment() {
  if (wal_fd_ >= 0) {
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
  wal_path_ = dir_ + "/" + NumberedName("wal-", next_lsn_, ".wal");
  // O_TRUNC: the only way this path already exists is a previous segment
  // that never gained a valid record (its name is its start LSN, and LSNs
  // only move forward), so overwriting rewrites an identical header.
  wal_fd_ = ::open(wal_path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  if (wal_fd_ < 0) return ErrnoError("open " + wal_path_);
  const std::string header =
      EncodeWalSegmentHeader(static_cast<uint32_t>(shard_index_), next_lsn_);
  RETURN_IF_ERROR(
      WriteAndMaybeSync(header, options_.wal_sync != WalSync::kNone));
  // Make the segment's existence durable before any record relies on it.
  if (options_.wal_sync != WalSync::kNone) RETURN_IF_ERROR(SyncDir(dir_));
  segment_bytes_ = header.size();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.wal_segments;
    stats_.wal_bytes += header.size();
  }
  return util::OkStatus();
}

util::Status ShardPersistence::WriteAndMaybeSync(std::string_view bytes,
                                                 bool sync) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(wal_fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write " + wal_path_);
    }
    off += static_cast<size_t>(n);
  }
  if (sync) {
    const auto start = std::chrono::steady_clock::now();
    if (::fdatasync(wal_fd_) != 0) return ErrnoError("fdatasync " + wal_path_);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.wal_syncs;
    if (fsync_window_.size() < kFsyncWindow) {
      fsync_window_.push_back(seconds);
    } else {
      fsync_window_[fsync_next_] = seconds;
      fsync_next_ = (fsync_next_ + 1) % kFsyncWindow;
    }
  }
  return util::OkStatus();
}

util::StatusOr<uint64_t> ShardPersistence::AppendWal(std::string_view payload) {
  if (wal_fd_ < 0) RETURN_IF_ERROR(OpenFreshSegment());
  const uint64_t lsn = next_lsn_++;
  const std::string record = EncodeWalRecord(lsn, payload);
  uint64_t record_bytes = record.size();
  if (options_.wal_sync == WalSync::kAlways) {
    RETURN_IF_ERROR(WriteAndMaybeSync(record, /*sync=*/true));
  } else {
    pending_.append(record);
  }
  ++pending_records_;
  pending_bytes_ += record_bytes;
  segment_bytes_ += record_bytes;
  return lsn;
}

util::Status ShardPersistence::CommitBatch() {
  if (pending_records_ == 0) return util::OkStatus();
  if (!pending_.empty()) {
    RETURN_IF_ERROR(WriteAndMaybeSync(
        pending_, /*sync=*/options_.wal_sync == WalSync::kBatch));
    pending_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.wal_records += pending_records_;
    stats_.wal_bytes += pending_bytes_;
  }
  records_since_snapshot_ += pending_records_;
  pending_records_ = 0;
  pending_bytes_ = 0;
  if (segment_bytes_ >= options_.wal_segment_bytes) {
    RETURN_IF_ERROR(OpenFreshSegment());
  }
  return util::OkStatus();
}

bool ShardPersistence::ShouldSnapshot() {
  if (records_since_snapshot_ == 0) return false;
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    if (job_.has_value() || job_running_) return false;
  }
  if (options_.snapshot_every_records > 0 &&
      records_since_snapshot_ >= options_.snapshot_every_records) {
    return true;
  }
  if (options_.snapshot_interval_seconds > 0) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      last_snapshot_time_)
            .count();
    if (elapsed >= options_.snapshot_interval_seconds) return true;
  }
  return false;
}

void ShardPersistence::SnapshotAsync(std::string body, uint64_t wal_lsn) {
  SnapshotJob job;
  job.seq = next_snapshot_seq_++;
  job.wal_lsn = wal_lsn;
  job.body = std::move(body);
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    job_ = std::move(job);  // latest wins if one is still queued
  }
  job_cv_.notify_one();
  records_since_snapshot_ = 0;
  last_snapshot_time_ = std::chrono::steady_clock::now();
}

util::Status ShardPersistence::FinalSnapshot(std::string body,
                                             uint64_t wal_lsn) {
  // Drain the writer first so sequence numbers land on disk in order.
  std::unique_lock<std::mutex> lock(job_mutex_);
  job_cv_.wait(lock, [this] { return !job_.has_value() && !job_running_; });
  const uint64_t seq = next_snapshot_seq_++;
  lock.unlock();
  records_since_snapshot_ = 0;
  return WriteSnapshotAndPrune(seq, wal_lsn, body);
}

void ShardPersistence::SnapshotWriterLoop() {
  for (;;) {
    SnapshotJob job;
    {
      std::unique_lock<std::mutex> lock(job_mutex_);
      job_cv_.wait(lock, [this] { return writer_exit_ || job_.has_value(); });
      if (!job_.has_value()) return;  // exit requested, mailbox empty
      job = std::move(*job_);
      job_.reset();
      job_running_ = true;
    }
    // Failures here are recorded implicitly (stats keep the previous seq)
    // but are non-fatal to serving: the WAL alone still recovers;
    // snapshots only bound replay time.
    (void)WriteSnapshotAndPrune(job.seq, job.wal_lsn, job.body);
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      job_running_ = false;
    }
    job_cv_.notify_all();
  }
}

util::Status ShardPersistence::WriteSnapshotAndPrune(uint64_t seq,
                                                     uint64_t wal_lsn,
                                                     const std::string& body) {
  const std::string path = dir_ + "/" + NumberedName("snapshot-", seq, ".snap");
  RETURN_IF_ERROR(WriteSnapshotFile(path, static_cast<uint32_t>(shard_index_),
                                    seq, wal_lsn, body));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.last_snapshot_seq = seq;
    ++stats_.snapshots_written;
  }

  // Prune snapshots beyond the retention count.
  std::vector<std::string> snapshots =
      ListNumberedFiles(dir_, "snapshot-", ".snap");
  const int keep =
      options_.snapshots_to_keep < 1 ? 1 : options_.snapshots_to_keep;
  while (static_cast<int>(snapshots.size()) > keep) {
    ::unlink((dir_ + "/" + snapshots.front()).c_str());
    snapshots.erase(snapshots.begin());
  }

  // Prune WAL segments every *retained* snapshot has absorbed: segment i
  // is deletable when segment i+1 starts at or below prune_lsn + 1 (then
  // segment i holds no record past prune_lsn). The newest segment always
  // survives — it is the active writer target.
  uint64_t prune_lsn = wal_lsn;
  for (const std::string& name : snapshots) {
    if (auto contents = ReadSnapshotFile(dir_ + "/" + name); contents.ok()) {
      prune_lsn = std::min(prune_lsn, contents->wal_lsn);
    } else {
      prune_lsn = 0;  // unreadable retained snapshot: prune nothing
    }
  }
  const std::vector<std::string> segments =
      ListNumberedFiles(dir_, "wal-", ".wal");
  uint64_t pruned_bytes = 0;
  uint64_t pruned_count = 0;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    const std::string& next = segments[i + 1];
    const uint64_t next_start = std::strtoull(
        next.substr(4, next.size() - 4 - 4).c_str(), nullptr, 10);
    if (next_start > prune_lsn + 1) break;
    const std::string victim = dir_ + "/" + segments[i];
    struct stat st;
    if (::stat(victim.c_str(), &st) == 0) {
      pruned_bytes += static_cast<uint64_t>(st.st_size);
    }
    ::unlink(victim.c_str());
    ++pruned_count;
  }
  if (pruned_count > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.wal_segments -= std::min(stats_.wal_segments, pruned_count);
    stats_.wal_bytes -= std::min(stats_.wal_bytes, pruned_bytes);
  }
  return util::OkStatus();
}

void ShardPersistence::SetRecoveryFingerprint(std::string hex) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.recovery_fingerprint = std::move(hex);
}

PersistenceStats ShardPersistence::Stats() const {
  PersistenceStats stats;
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats = stats_;
    window = fsync_window_;
  }
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    stats.fsync_seconds_p50 = util::NearestRankPercentileSorted(window, 0.50);
    stats.fsync_seconds_p90 = util::NearestRankPercentileSorted(window, 0.90);
    stats.fsync_seconds_p99 = util::NearestRankPercentileSorted(window, 0.99);
    stats.fsync_seconds_max = window.back();
  }
  return stats;
}

}  // namespace auditgame::server
