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
#include <utility>

#include "util/logging.h"
#include "util/serializer.h"

namespace auditgame::server {
namespace {

using util::AppendBe;

util::Status ErrnoError(const std::string& what) {
  return util::InternalError(what + ": " + std::strerror(errno));
}

/// Writes all of `bytes` to `fd`, retrying short writes; `path` names the
/// file in the error.
util::Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write " + path);
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return util::OkStatus();
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

/// The file's bytes: one read sized by fstat (looped only if the kernel
/// returns less). A file that ends before its stat size is an error.
util::StatusOr<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return util::NotFoundError("cannot open " + path);
    return ErrnoError("open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const util::Status err = ErrnoError("fstat " + path);
    ::close(fd);
    return err;
  }
  std::string contents(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < contents.size()) {
    const ssize_t n =
        ::read(fd, contents.data() + got, contents.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const util::Status err =
          n < 0 ? ErrnoError("read " + path)
                : util::InternalError("read " + path + ": got " +
                                      std::to_string(got) + " of " +
                                      std::to_string(contents.size()) +
                                      " bytes");
      ::close(fd);
      return err;
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  return contents;
}

std::string NumberedName(std::string_view prefix, uint64_t n,
                         std::string_view suffix) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(n));
  return std::string(prefix) + buf + std::string(suffix);
}

/// The number in a name ListNumberedFiles() returned for `prefix` and
/// `suffix`.
uint64_t NumberOfName(const std::string& name, std::string_view prefix,
                      std::string_view suffix) {
  return std::strtoull(
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size())
          .c_str(),
      nullptr, 10);
}

/// A record's CRC-32 covers its big-endian LSN bytes, then its payload.
uint32_t WalRecordCrc(uint64_t lsn, std::string_view payload) {
  char lsn_bytes[8];
  util::StoreBe(lsn_bytes, lsn);
  return util::Crc32Update(util::Crc32({lsn_bytes, sizeof(lsn_bytes)}),
                           payload);
}

}  // namespace

const char* WalSyncName(WalSync sync) {
  switch (sync) {
    case WalSync::kNone:
      return "none";
    case WalSync::kBatch:
      return "batch";
  }
  return "unknown";
}

util::StatusOr<WalSync> WalSyncFromName(std::string_view name) {
  if (name == "none") return WalSync::kNone;
  if (name == "batch") return WalSync::kBatch;
  return util::InvalidArgumentError("unknown wal_sync '" + std::string(name) +
                                    "' (none|batch)");
}

void DefineDurabilityFlags(util::FlagParser& flags) {
  flags.Define("data_dir", "",
               "durability root: per-shard snapshots + ingest WAL under "
               "<data_dir>/shard-<i>/; startup recovers from it (empty = "
               "no durability)");
  flags.Define("wal_sync", "batch",
               "WAL fsync policy: none (page cache only), batch (one "
               "fdatasync per shard micro-batch — the group commit)");
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
  ASSIGN_OR_RETURN(const int segment_mb,
                   flags.GetIntAtLeast("wal_segment_mb", 1));
  options.wal_segment_bytes = static_cast<uint64_t>(segment_mb) << 20;
  options.snapshot_on_drain = flags.GetInt("snapshot_on_drain") != 0;
  return options;
}

util::Status WriteSnapshotFile(const std::string& path, uint32_t shard,
                               uint64_t seq, uint64_t wal_lsn,
                               std::string_view body) {
  std::string header(kSnapshotMagic);
  AppendBe(&header, kSnapshotFormatVersion);
  AppendBe(&header, shard);
  AppendBe(&header, seq);
  AppendBe(&header, wal_lsn);
  AppendBe<uint64_t>(&header, body.size());
  AppendBe(&header, util::Crc32(body));
  AppendBe(&header, util::Crc32(header));

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0666);
  if (fd < 0) return ErrnoError("open " + tmp);
  util::Status status = WriteAll(fd, header, tmp);
  if (status.ok()) status = WriteAll(fd, body, tmp);
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
  util::ByteReader in(data);
  std::string_view magic;
  uint32_t version = 0;
  SnapshotContents contents;
  uint64_t body_len = 0;
  uint32_t body_crc = 0;
  uint32_t header_crc = 0;
  const bool whole_header =
      in.ReadBytes(kSnapshotMagic.size(), &magic) && in.Read(&version) &&
      in.Read(&contents.shard) && in.Read(&contents.seq) &&
      in.Read(&contents.wal_lsn) && in.Read(&body_len) && in.Read(&body_crc);
  const size_t crc_covered = in.pos();
  if (!whole_header || !in.Read(&header_crc)) {
    return util::InvalidArgumentError(path + ": short snapshot header");
  }
  if (magic != kSnapshotMagic) {
    return util::InvalidArgumentError(path + ": bad snapshot magic");
  }
  if (util::Crc32(std::string_view(data).substr(0, crc_covered)) !=
      header_crc) {
    return util::InvalidArgumentError(path + ": snapshot header CRC mismatch");
  }
  if (version != kSnapshotFormatVersion) {
    return util::InvalidArgumentError(
        path + ": unsupported snapshot format v" + std::to_string(version));
  }
  if (in.remaining() != body_len) {
    return util::InvalidArgumentError(
        path + ": snapshot body length mismatch (header says " +
        std::to_string(body_len) + ", file has " +
        std::to_string(in.remaining()) + ")");
  }
  const size_t header_bytes = in.pos();
  if (util::Crc32(std::string_view(data).substr(header_bytes)) != body_crc) {
    return util::InvalidArgumentError(path + ": snapshot body CRC mismatch");
  }
  // Shift the body down in place rather than copy it into a new buffer.
  data.erase(0, header_bytes);
  contents.body = std::move(data);
  return contents;
}

std::string EncodeWalSegmentHeader(uint32_t shard, uint64_t start_lsn) {
  std::string header(kWalMagic);
  AppendBe(&header, kWalFormatVersion);
  AppendBe(&header, shard);
  AppendBe(&header, start_lsn);
  AppendBe(&header, util::Crc32(header));
  return header;
}

void AppendWalRecord(std::string* out, uint64_t lsn,
                     std::string_view payload) {
  AppendBe<uint32_t>(out, payload.size());
  AppendBe(out, WalRecordCrc(lsn, payload));
  AppendBe(out, lsn);
  out->append(payload);
}

util::StatusOr<WalSegmentScan> ScanWalSegment(
    const std::string& path,
    const std::function<void(const WalRecord&)>& on_record) {
  ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
  util::ByteReader in(data);
  std::string_view magic;
  uint32_t version = 0;
  WalSegmentScan scan;
  uint32_t header_crc = 0;
  const bool whole_header = in.ReadBytes(kWalMagic.size(), &magic) &&
                            in.Read(&version) && in.Read(&scan.shard) &&
                            in.Read(&scan.start_lsn);
  const size_t crc_covered = in.pos();
  if (!whole_header || !in.Read(&header_crc)) {
    return util::InvalidArgumentError(path + ": short WAL segment header");
  }
  if (magic != kWalMagic) {
    return util::InvalidArgumentError(path + ": bad WAL magic");
  }
  if (util::Crc32(std::string_view(data).substr(0, crc_covered)) !=
      header_crc) {
    return util::InvalidArgumentError(path + ": WAL header CRC mismatch");
  }
  if (version != kWalFormatVersion) {
    return util::InvalidArgumentError(path + ": unsupported WAL format v" +
                                      std::to_string(version));
  }
  scan.last_lsn = scan.start_lsn - 1;
  scan.valid_bytes = in.pos();

  uint64_t expected_lsn = scan.start_lsn;
  while (!in.exhausted()) {
    const size_t offset = in.pos();
    uint32_t len = 0;
    uint32_t crc = 0;
    uint64_t lsn = 0;
    if (!in.Read(&len) || !in.Read(&crc) || !in.Read(&lsn)) {
      scan.torn_reason =
          "short record header at offset " + std::to_string(offset);
      break;
    }
    if (len > kMaxWalRecordPayload) {
      scan.torn_reason = "implausible record length " + std::to_string(len) +
                         " at offset " + std::to_string(offset);
      break;
    }
    std::string_view payload;
    if (!in.ReadBytes(len, &payload)) {
      scan.torn_reason =
          "truncated record payload at offset " + std::to_string(offset);
      break;
    }
    if (WalRecordCrc(lsn, payload) != crc) {
      scan.torn_reason =
          "record CRC mismatch at offset " + std::to_string(offset);
      break;
    }
    if (lsn != expected_lsn) {
      scan.torn_reason = "LSN discontinuity at offset " +
                         std::to_string(offset) + " (found " +
                         std::to_string(lsn) + ", expected " +
                         std::to_string(expected_lsn) + ")";
      break;
    }
    if (on_record) {
      WalRecord record;
      record.lsn = lsn;
      record.payload = std::string(payload);
      on_record(record);
    }
    scan.valid_bytes = in.pos();
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
  CHECK_GE(options_.snapshots_to_keep, 1);
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
  uint64_t snapshot_bytes = 0;
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
    snapshot_lsns_[NumberOfName(*it, "snapshot-", ".snap")] =
        contents->wal_lsn;
    snapshot_lsn = contents->wal_lsn;
    snapshot_seq = contents->seq;
    snapshot_bytes = contents->body.size();
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
  stats_.last_snapshot_bytes = snapshot_bytes;
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
  RETURN_IF_ERROR(WriteAll(wal_fd_, bytes, wal_path_));
  if (sync) {
    const auto start = std::chrono::steady_clock::now();
    if (::fdatasync(wal_fd_) != 0) return ErrnoError("fdatasync " + wal_path_);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    fsync_seconds_.Add(seconds);
  }
  return util::OkStatus();
}

util::StatusOr<uint64_t> ShardPersistence::AppendWal(std::string_view payload) {
  if (wal_fd_ < 0) RETURN_IF_ERROR(OpenFreshSegment());
  const uint64_t lsn = next_lsn_++;
  const size_t before = pending_.size();
  AppendWalRecord(&pending_, lsn, payload);
  ++pending_records_;
  segment_bytes_ += pending_.size() - before;
  return lsn;
}

util::Status ShardPersistence::CommitBatch() {
  if (pending_records_ == 0) return util::OkStatus();
  const uint64_t records = pending_records_;
  const uint64_t bytes = pending_.size();
  // A failed batch is dropped, not retried: a second attempt would land
  // after whatever part of the first one did.
  util::Status written = WriteAndMaybeSync(
      pending_, /*sync=*/options_.wal_sync == WalSync::kBatch);
  pending_.clear();
  pending_records_ = 0;
  RETURN_IF_ERROR(written);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.wal_records += records;
    stats_.wal_bytes += bytes;
  }
  records_since_snapshot_ += records;
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
    stats_.last_snapshot_bytes = body.size();
    ++stats_.snapshots_written;
  }
  snapshot_lsns_[seq] = wal_lsn;

  // Prune snapshots beyond the retention count.
  std::vector<std::string> snapshots =
      ListNumberedFiles(dir_, "snapshot-", ".snap");
  while (snapshots.size() > static_cast<size_t>(options_.snapshots_to_keep)) {
    ::unlink((dir_ + "/" + snapshots.front()).c_str());
    snapshot_lsns_.erase(NumberOfName(snapshots.front(), "snapshot-", ".snap"));
    snapshots.erase(snapshots.begin());
  }

  // Prune WAL segments every *retained* snapshot has absorbed: segment i
  // is deletable when segment i+1 starts at or below prune_lsn + 1 (then
  // segment i holds no record past prune_lsn). The newest segment always
  // survives — it is the active writer target. A retained snapshot of
  // unknown LSN prunes nothing.
  uint64_t prune_lsn = wal_lsn;
  for (const std::string& name : snapshots) {
    const auto known =
        snapshot_lsns_.find(NumberOfName(name, "snapshot-", ".snap"));
    prune_lsn =
        std::min(prune_lsn, known == snapshot_lsns_.end() ? 0 : known->second);
  }
  const std::vector<std::string> segments =
      ListNumberedFiles(dir_, "wal-", ".wal");
  uint64_t pruned_bytes = 0;
  uint64_t pruned_count = 0;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (NumberOfName(segments[i + 1], "wal-", ".wal") > prune_lsn + 1) break;
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
  std::unique_lock<std::mutex> lock(stats_mutex_);
  PersistenceStats stats = stats_;
  const util::LatencyWindow fsync_seconds = fsync_seconds_;
  lock.unlock();
  stats.wal_syncs = static_cast<uint64_t>(fsync_seconds.count());
  stats.fsync_seconds = fsync_seconds.Summary();
  return stats;
}

}  // namespace auditgame::server
