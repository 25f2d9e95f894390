#include "service/policy_cache.h"

#include <string>
#include <utility>

#include "core/game_io.h"
#include "util/serializer.h"

namespace auditgame::service {

namespace {

/// Everything FingerprintRequest hashes after the game: the request's
/// configuration.
void AppendRequestConfig(util::FingerprintBuilder& fp,
                         const solver::EngineRequest& request) {
  fp.AppendDouble(request.budget);

  const core::DetectionModel::Options& d = request.detection_options;
  fp.AppendI64(static_cast<int64_t>(d.mode));
  fp.AppendI64(static_cast<int64_t>(d.semantics));
  fp.AppendI64(static_cast<int64_t>(d.consumption));
  fp.AppendI64(d.mc_samples);
  fp.AppendU64(d.seed);
  fp.AppendDouble(d.budget_unit);

  fp.AppendString(request.solver);
  fp.AppendI64(static_cast<int64_t>(request.thresholds.size()));
  for (double b : request.thresholds) fp.AppendDouble(b);

  const auto append_doubles = [&fp](const std::vector<double>& values) {
    fp.AppendI64(static_cast<int64_t>(values.size()));
    for (double v : values) fp.AppendDouble(v);
  };
  const auto append_orderings =
      [&fp](const std::vector<std::vector<int>>& orderings) {
        fp.AppendI64(static_cast<int64_t>(orderings.size()));
        for (const auto& ordering : orderings) {
          fp.AppendI64(static_cast<int64_t>(ordering.size()));
          for (int t : ordering) fp.AppendI64(t);
        }
      };

  const solver::SolverOptions& o = request.options;
  fp.AppendDouble(o.ishm.step_size);
  fp.AppendU64(o.ishm.floor_to_audit_cost ? 1 : 0);
  append_doubles(o.ishm.initial_thresholds);
  fp.AppendI64(o.ishm.max_subset_size);
  fp.AppendI64(o.cggs.max_columns);
  fp.AppendDouble(o.cggs.reduced_cost_tolerance);
  fp.AppendI64(o.cggs.random_probes);
  fp.AppendU64(o.cggs.seed);
  // The slot where pricing_threads was hashed before pricing became
  // serial. A constant 1 (the old default) keeps every stored key and
  // snapshot valid; the field itself no longer shapes a solve.
  fp.AppendI64(1);
  append_orderings(o.cggs.initial_orderings);
  fp.AppendU64(o.brute_force.require_sum_at_least_budget ? 1 : 0);
  append_doubles(request.warm_start.thresholds);
  append_orderings(request.warm_start.orderings);
}

}  // namespace

util::Fingerprint FingerprintRequestForGame(
    const util::Fingerprint& game, const solver::EngineRequest& request) {
  util::FingerprintBuilder fp;
  fp.AppendU64(game.hi);
  fp.AppendU64(game.lo);
  AppendRequestConfig(fp, request);
  return fp.Build();
}

util::Fingerprint FingerprintRequest(const solver::EngineRequest& request) {
  if (request.instance != nullptr) {
    return FingerprintRequestForGame(core::FingerprintGame(*request.instance),
                                     request);
  }
  // A null instance is a (rejected) request in its own right; give it a
  // distinct marker rather than crashing the fingerprinter.
  util::FingerprintBuilder fp;
  fp.AppendString("null-instance");
  AppendRequestConfig(fp, request);
  return fp.Build();
}

PolicyCache::Stats& PolicyCache::Stats::operator+=(const Stats& other) {
  hits += other.hits;
  misses += other.misses;
  insertions += other.insertions;
  evictions += other.evictions;
  for (size_t i = 0; i < kReuseBuckets; ++i) {
    reuse_distance[i] += other.reuse_distance[i];
  }
  return *this;
}

size_t PolicyCache::ReuseBucket(size_t position) {
  // 0 -> 0, then one bucket per power of two: bit_width(position).
  size_t bucket = 0;
  while (position > 0 && bucket + 1 < kReuseBuckets) {
    position >>= 1;
    ++bucket;
  }
  return bucket;
}

std::string PolicyCache::ReuseBucketLabel(size_t bucket) {
  if (bucket == 0) return "0";
  const size_t lo = size_t{1} << (bucket - 1);
  if (bucket + 1 == kReuseBuckets) return std::to_string(lo) + "+";
  if (lo == 1) return "1";
  return std::to_string(lo) + "-" + std::to_string(2 * lo - 1);
}

std::shared_ptr<const solver::SolveResult> PolicyCache::Find(
    const util::Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t position = 0;
  if (const auto* cached = cache_.Lookup(key, &position)) {
    ++stats_.hits;
    ++stats_.reuse_distance[ReuseBucket(position)];
    return *cached;
  }
  ++stats_.misses;
  return nullptr;
}

void PolicyCache::Insert(const util::Fingerprint& key,
                         std::shared_ptr<const solver::SolveResult> result) {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.Insert(key, std::move(result));
  ++stats_.insertions;
}

PolicyCache::Stats PolicyCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.evictions = cache_.evictions();
  return stats;
}

size_t PolicyCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

size_t PolicyCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.capacity();
}

void PolicyCache::StreamState(util::Serializer& s) {
  std::lock_guard<std::mutex> lock(mutex_);
  s.Section("policy_cache", 1);
  uint64_t capacity = cache_.capacity();
  s.U64(capacity);
  if (s.reading() && s.ok() && capacity != cache_.capacity()) {
    s.Fail(util::FailedPreconditionError(
        "PolicyCache: snapshot capacity " + std::to_string(capacity) +
        " != configured capacity " + std::to_string(cache_.capacity())));
  }
  uint64_t count = cache_.size();
  s.U64(count);
  if (s.ok() && s.reading()) {
    cache_.Clear();
    for (uint64_t i = 0; i < count; ++i) {
      util::Fingerprint key;
      auto result = std::make_shared<solver::SolveResult>();
      s.Object(key);
      s.Object(*result);
      if (!s.ok()) return;
      // Oldest-first re-insertion reproduces the recency list; count never
      // exceeds capacity (checked above), so nothing evicts here.
      cache_.Insert(key, std::move(result));
    }
  } else if (s.ok()) {
    cache_.ForEachOldestFirst(
        [&s](const util::Fingerprint& key,
             const std::shared_ptr<const solver::SolveResult>& result) {
          util::Fingerprint k = key;
          s.Object(k);
          // Writing reads the result and leaves it unchanged.
          s.Object(const_cast<solver::SolveResult&>(*result));
        });
  }
}

}  // namespace auditgame::service
