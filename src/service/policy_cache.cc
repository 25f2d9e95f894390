#include "service/policy_cache.h"

#include <string>
#include <utility>

#include "core/game_io.h"
#include "util/serializer.h"

namespace auditgame::service {

util::Fingerprint FingerprintRequest(const solver::EngineRequest& request) {
  util::FingerprintBuilder fp;
  // Game content. A null instance is a (rejected) request in its own right;
  // give it a distinct marker rather than crashing the fingerprinter.
  if (request.instance == nullptr) {
    fp.AppendString("null-instance");
  } else {
    const util::Fingerprint game = core::FingerprintGame(*request.instance);
    fp.AppendU64(game.hi);
    fp.AppendU64(game.lo);
  }
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
  // pricing_threads is result-neutral by contract (see CggsOptions), but
  // it is still configuration: hashing it keeps the key a faithful image
  // of the request and costs at most a duplicate solve per thread count.
  fp.AppendI64(o.cggs.pricing_threads);
  append_orderings(o.cggs.initial_orderings);
  fp.AppendU64(o.brute_force.require_sum_at_least_budget ? 1 : 0);
  append_doubles(request.warm_start.thresholds);
  append_orderings(request.warm_start.orderings);
  return fp.Build();
}

std::optional<solver::SolveResult> PolicyCache::Lookup(
    const util::Fingerprint& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (solver::SolveResult* cached = cache_.Lookup(key)) {
    ++stats_.hits;
    return *cached;
  }
  ++stats_.misses;
  return std::nullopt;
}

void PolicyCache::Insert(const util::Fingerprint& key,
                         solver::SolveResult result) {
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
  s.I64(stats_.hits);
  s.I64(stats_.misses);
  s.I64(stats_.insertions);
  int64_t evictions = cache_.evictions();
  s.I64(evictions);
  uint64_t count = cache_.size();
  s.U64(count);
  if (s.ok() && s.reading()) {
    cache_.Clear();
    cache_.SetEvictions(evictions);
    for (uint64_t i = 0; i < count; ++i) {
      util::Fingerprint key;
      solver::SolveResult result;
      s.Object(key);
      s.Object(result);
      if (!s.ok()) return;
      // Oldest-first re-insertion reproduces the recency list; count never
      // exceeds capacity (checked above), so nothing evicts here.
      cache_.Insert(key, std::move(result));
    }
  } else if (s.ok()) {
    cache_.ForEachOldestFirst(
        [&s](const util::Fingerprint& key, const solver::SolveResult& result) {
          util::Fingerprint k = key;
          s.Object(k);
          s.Object(const_cast<solver::SolveResult&>(result));
        });
  }
}

}  // namespace auditgame::service
