#ifndef AUDIT_GAME_SERVER_HASH_RING_H_
#define AUDIT_GAME_SERVER_HASH_RING_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace auditgame::server {

/// Consistent-hash placement of tenants on backend nodes: each node
/// contributes `virtual_nodes` points on a 64-bit ring (FNV-1a over the
/// node name and replica index) and a tenant lands on the first point
/// clockwise of its own hash — the same FNV-1a tenant hash the in-process
/// shard routing uses (AuditServer::ShardForTenant), just without the
/// modulus. Removing a node deletes only that node's points, so only the
/// tenants that hashed to them move (to each arc's clockwise neighbor);
/// everything else stays put. That minimal-movement property is what makes
/// the router's warm-failover story work: a backend kill re-routes its
/// tenants and nobody else's cache locality is disturbed.
///
/// The successor of a tenant — the owner of the next arc belonging to a
/// *different* node — doubles as its replication target: the node that
/// will inherit the tenant if the primary dies is exactly the one kept
/// warm. Deterministic across runs and platforms (pure FNV-1a, sorted
/// points, node id as the collision tiebreak). Not thread-safe; the
/// router guards it with its own mutex.
class HashRing {
 public:
  /// `virtual_nodes` must be at least 1 (CHECKed).
  explicit HashRing(int virtual_nodes = 128);

  /// Adds (or re-adds) a node. `name` seeds the ring points, so a node's
  /// arcs are a function of its name alone — remove + add round-trips to
  /// the identical layout.
  void AddNode(int id, const std::string& name);
  void RemoveNode(int id);
  bool HasNode(int id) const { return nodes_.count(id) != 0; }
  size_t size() const { return nodes_.size(); }
  int virtual_nodes() const { return virtual_nodes_; }

  /// The tenant's position on the ring: FNV-1a(tenant), length-prefixed —
  /// identical to the hash behind ShardForTenant.
  static uint64_t PointForTenant(const std::string& tenant);

  /// Owner of the first ring point clockwise of `point` (wrapping), -1 on
  /// an empty ring.
  int PrimaryFor(uint64_t point) const;

  /// Owner of the next arc after the primary's that belongs to a
  /// different node — the failover inheritor / replication target. -1
  /// when fewer than two nodes are live.
  int SuccessorFor(uint64_t point) const;

 private:
  void Rebuild();

  int virtual_nodes_;
  std::map<int, std::string> nodes_;
  /// Sorted (point, node id) pairs — rebuilt on membership change, binary
  /// searched on every placement.
  std::vector<std::pair<uint64_t, int>> points_;
};

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_HASH_RING_H_
