#ifndef AUDIT_GAME_UTIL_ARENA_H_
#define AUDIT_GAME_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace auditgame::util {

/// A bump (arena) allocator for per-solve scratch memory.
///
/// The solver hot paths — CGGS pricing rounds, revised-simplex eta files
/// and Ftran/Btran scratch, detection prefix convolutions, ISHM threshold
/// buffers — need short-lived vectors whose sizes repeat every call. An
/// Arena serves them by bumping a cursor through reusable blocks: the
/// first solve pays the heap allocations, every later solve (after
/// Reset(), or inside an ArenaScope) reuses the same memory with zero
/// heap traffic. The stats counters make "allocations per solve" a
/// measurable, benchmark-gated quantity (bench/micro_cggs,
/// bench/micro_detection).
///
/// Threading: an Arena is single-threaded. Parallel workers index into
/// buffers carved out before the parallel region (slots preassigned by
/// chunk, so results stay deterministic) and never allocate themselves.
///
/// Lifetime contract (see docs/DESIGN.md "Numeric kernels and arenas"):
/// memory obtained from Allocate() is valid until the enclosing
/// ArenaScope is destroyed or Reset() is called, whichever comes first.
/// Arena memory is never individually freed and destructors are never
/// run — only trivially-destructible payloads belong here.
class Arena {
 public:
  struct Stats {
    /// Allocate() calls served (scratch requests that would otherwise be
    /// individual heap allocations).
    uint64_t requests = 0;
    /// Blocks actually obtained from the heap — the residual real
    /// allocation count.
    uint64_t heap_blocks = 0;
    /// Bytes obtained from the heap across all blocks.
    uint64_t heap_bytes = 0;
  };

  /// A rewind point: (block index, bytes used in that block).
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };

  explicit Arena(size_t first_block_bytes = 16 * 1024)
      : first_block_bytes_(first_block_bytes ? first_block_bytes : 1024) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two).
  /// Never fails short of std::bad_alloc; Allocate(0) returns a valid
  /// non-null pointer.
  void* Allocate(size_t bytes, size_t alignment = alignof(std::max_align_t)) {
    ++stats_.requests;
    for (;;) {
      if (active_ < blocks_.size()) {
        Block& block = blocks_[active_];
        const size_t aligned = AlignUp(block.used, alignment);
        if (aligned + bytes <= block.capacity) {
          block.used = aligned + bytes;
          return block.data.get() + aligned;
        }
        // Does not fit: move on. Memory past `used` in this block stays
        // idle until the next Reset()/scope rewind — bounded waste, since
        // block sizes grow geometrically.
        ++active_;
        if (active_ < blocks_.size()) blocks_[active_].used = 0;
        continue;
      }
      NewBlock(bytes + alignment);
    }
  }

  /// Typed array of `n` trivially-destructible Ts (uninitialized).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory never runs destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds the cursor to the beginning, keeping every block's capacity.
  void Reset() {
    for (Block& block : blocks_) block.used = 0;
    active_ = 0;
  }

  Mark Position() const {
    if (active_ >= blocks_.size()) return Mark{blocks_.size(), 0};
    return Mark{active_, blocks_[active_].used};
  }

  /// Rewinds to a previous Position(). Marks must unwind LIFO (ArenaScope
  /// enforces this).
  void Rewind(const Mark& mark) {
    for (size_t i = mark.block + 1; i < blocks_.size(); ++i) {
      blocks_[i].used = 0;
    }
    if (mark.block < blocks_.size()) blocks_[mark.block].used = mark.used;
    active_ = mark.block;
  }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  /// Total capacity currently held (for introspection/tests).
  size_t capacity_bytes() const {
    size_t total = 0;
    for (const Block& block : blocks_) total += block.capacity;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  static size_t AlignUp(size_t value, size_t alignment) {
    return (value + alignment - 1) & ~(alignment - 1);
  }

  void NewBlock(size_t min_bytes) {
    size_t capacity = blocks_.empty() ? first_block_bytes_
                                      : blocks_.back().capacity * 2;
    if (capacity < min_bytes) capacity = min_bytes;
    Block block;
    block.data = std::make_unique<char[]>(capacity);
    block.capacity = capacity;
    block.used = 0;
    blocks_.push_back(std::move(block));
    active_ = blocks_.size() - 1;
    ++stats_.heap_blocks;
    stats_.heap_bytes += capacity;
  }

  const size_t first_block_bytes_;
  std::vector<Block> blocks_;
  size_t active_ = 0;
  Stats stats_;
};

/// RAII rewind: everything allocated from `arena` after construction is
/// reclaimed (capacity kept) when the scope dies. Scopes nest LIFO.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena)
      : arena_(&arena), mark_(arena.Position()) {}
  ~ArenaScope() { arena_->Rewind(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

/// A minimal std::pmr-style vector over arena storage, for trivially
/// copyable, trivially destructible element types (double, int, small
/// PODs). Growth allocates a fresh arena range and memcpy's — the old
/// range is reclaimed only at the next scope rewind, so reserve() up front
/// in loops. Not a drop-in std::vector: no erase/insert, no allocator
/// propagation, invalid after its arena rewinds past it.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaVector is for trivial scratch payloads only");

 public:
  explicit ArenaVector(Arena& arena) : arena_(&arena) {}
  ArenaVector(Arena& arena, size_t n, const T& value = T()) : arena_(&arena) {
    assign(n, value);
  }

  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;
  ArenaVector(ArenaVector&& other) noexcept
      : arena_(other.arena_),
        data_(other.data_),
        size_(other.size_),
        capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
  }

  void reserve(size_t n) {
    if (n <= capacity_) return;
    T* grown = arena_->AllocateArray<T>(n);
    if (size_ > 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = n;
  }

  void resize(size_t n, const T& value = T()) {
    reserve(n);
    for (size_t i = size_; i < n; ++i) data_[i] = value;
    size_ = n;
  }

  void assign(size_t n, const T& value) {
    reserve(n);
    for (size_t i = 0; i < n; ++i) data_[i] = value;
    size_ = n;
  }

  void assign(const T* begin, const T* end) {
    const size_t n = static_cast<size_t>(end - begin);
    reserve(n);
    if (n > 0) std::memcpy(data_, begin, n * sizeof(T));
    size_ = n;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) reserve(capacity_ == 0 ? 8 : capacity_ * 2);
    data_[size_++] = value;
  }

  void clear() { size_ = 0; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& back() { return data_[size_ - 1]; }

 private:
  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace auditgame::util

#endif  // AUDIT_GAME_UTIL_ARENA_H_
