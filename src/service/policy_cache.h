#ifndef AUDIT_GAME_SERVICE_POLICY_CACHE_H_
#define AUDIT_GAME_SERVICE_POLICY_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "solver/solver.h"
#include "util/hash.h"
#include "util/lru_cache.h"

namespace auditgame::util {
class Serializer;
}  // namespace auditgame::util

namespace auditgame::service {

/// Content fingerprint of the full configured request: the game instance
/// (by content, via core::FingerprintGame), the budget, the
/// detection-model options, the solver name, the fixed thresholds, and
/// every solver option — including search seeds and caps
/// (IshmOptions::initial_thresholds / max_subset_size,
/// CggsOptions::initial_orderings, EngineRequest::warm_start), since a
/// differently configured search can reach different heuristic optima.
/// Two services sharing one cache with different standing configurations
/// therefore never collide.
///
/// AuditService deliberately fingerprints the *base* (cold) request before
/// applying its per-cycle warm-start overrides, so a warm re-solve is
/// cached under the configuration's key; see AuditService for why that is
/// sound.
util::Fingerprint FingerprintRequest(const solver::EngineRequest& request);

/// FingerprintRequest(request), bit for bit, with `game` standing in for
/// core::FingerprintGame(*request.instance) (request.instance is not
/// read). Lets a caller that serves one instance under several
/// configurations hash the instance once per change, not once per key.
util::Fingerprint FingerprintRequestForGame(
    const util::Fingerprint& game, const solver::EngineRequest& request);

/// Thread-safe LRU cache of solved policies, keyed by request fingerprint.
/// Each AuditService owns one, sized by AuditServiceOptions (entries per
/// budget × budgets), and fills it from the service's single writer
/// thread; the lock lets another thread (a server's stats refresh) read
/// stats() while the owner serves. Each distinct
/// configuration is solved once and then served from memory until
/// evicted. Entries are immutable and shared: the service's warm-start
/// baselines point at the same result objects.
class PolicyCache {
 public:
  /// Hit counts by reuse distance come in kReuseBuckets power-of-two
  /// buckets: 0, 1, 2-3, 4-7, 8-15, 16-31 and 32 or more.
  static constexpr size_t kReuseBuckets = 7;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    /// Hits by the entry's position in the recency list at lookup (0 =
    /// the most recently used entry), bucketed by ReuseBucket(). A cache
    /// of capacity c keeps every hit whose position is below c.
    std::array<int64_t, kReuseBuckets> reuse_distance{};

    /// Adds `other`'s counters (sums the caches of several services).
    Stats& operator+=(const Stats& other);
  };

  /// The reuse_distance bucket of a hit at recency `position`.
  static size_t ReuseBucket(size_t position);
  /// Bucket `bucket`'s range as text: "0", "1", "2-3", ..., "32+".
  static std::string ReuseBucketLabel(size_t bucket);

  explicit PolicyCache(size_t capacity) : cache_(capacity) {}

  PolicyCache(const PolicyCache&) = delete;
  PolicyCache& operator=(const PolicyCache&) = delete;

  /// Returns the cached result, refreshing the entry's recency and
  /// counting the hit's reuse distance; null on miss. The result is
  /// immutable, so the caller may keep it without holding the lock.
  std::shared_ptr<const solver::SolveResult> Find(
      const util::Fingerprint& key);

  /// Inserts or overwrites the entry for `key`.
  void Insert(const util::Fingerprint& key,
              std::shared_ptr<const solver::SolveResult> result);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const;

  /// Streams every entry (oldest-first, so restore reproduces the LRU
  /// order) and the capacity as a guard (a snapshot taken under one
  /// capacity must not be restored into a differently sized cache —
  /// recency-dependent eviction would diverge from the original process).
  /// The stats() counters are not state: they count this process's
  /// lookups and restart with it. Takes the cache lock.
  void StreamState(util::Serializer& s);

 private:
  mutable std::mutex mutex_;
  util::LruCache<util::Fingerprint, std::shared_ptr<const solver::SolveResult>>
      cache_;
  Stats stats_;
};

}  // namespace auditgame::service

#endif  // AUDIT_GAME_SERVICE_POLICY_CACHE_H_
