#ifndef AUDIT_GAME_UTIL_LRU_CACHE_H_
#define AUDIT_GAME_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <utility>

namespace auditgame::util {

/// A bounded map with least-recently-used eviction. Lookup() refreshes an
/// entry's recency; Insert() evicts the coldest entry once `capacity` is
/// exceeded. Not thread-safe — wrap with a mutex at the call site (see
/// service::PolicyCache, which holds one lock per cache instance).
template <typename Key, typename Value, typename Compare = std::less<Key>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  int64_t evictions() const { return evictions_; }

  /// Returns the cached value and marks it most-recently-used, or nullptr.
  /// The pointer stays valid until the next Insert()/Clear().
  Value* Lookup(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /// Read-only probe that does not refresh recency.
  const Value* Peek(const Key& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Inserts or overwrites; the entry becomes most-recently-used. Evicts
  /// the least-recently-used entry when over capacity.
  void Insert(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
    if (entries_.size() > capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      ++evictions_;
    }
  }

  void Clear() {
    entries_.clear();
    index_.clear();
  }

  /// Visits entries from least- to most-recently-used. Serialization hook:
  /// re-Insert()ing entries in this order reproduces both contents and the
  /// recency list exactly (the last entry visited ends up most recent).
  template <typename Fn>
  void ForEachOldestFirst(Fn&& fn) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      fn(it->first, it->second);
    }
  }

 private:
  size_t capacity_;
  int64_t evictions_ = 0;
  // Front = most recently used.
  std::list<std::pair<Key, Value>> entries_;
  std::map<Key, typename std::list<std::pair<Key, Value>>::iterator, Compare>
      index_;
};

}  // namespace auditgame::util

#endif  // AUDIT_GAME_UTIL_LRU_CACHE_H_
