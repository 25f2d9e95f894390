// Counting replacements for the global allocation functions (linked into
// the smoke-capable micro benches only — never into the library). Every
// form funnels through CountedAlloc and CountedFree, so the counters see
// new, new[], nothrow, and aligned allocations alike. Each block carries a
// header holding its requested size, so a free subtracts exactly what its
// allocation added.
#include "bench/alloc_count.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<int64_t> g_live_bytes{0};

/// Header bytes in front of a block of `alignment`: at least one
/// max_align_t, so the returned pointer keeps malloc's alignment.
std::size_t HeaderBytes(std::size_t alignment) {
  return std::max(alignment, alignof(std::max_align_t));
}

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t header = HeaderBytes(alignment);
  void* base = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    base = std::malloc(header + size);
  } else {
    // aligned_alloc requires size to be a multiple of the alignment.
    const std::size_t padded =
        (header + size + alignment - 1) / alignment * alignment;
    base = std::aligned_alloc(alignment, padded);
  }
  if (base == nullptr) return nullptr;
  *static_cast<std::size_t*>(base) = size;
  g_live_bytes.fetch_add(static_cast<int64_t>(size),
                         std::memory_order_relaxed);
  return static_cast<char*>(base) + header;
}

void CountedFree(void* p, std::size_t alignment) {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - HeaderBytes(alignment);
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*static_cast<std::size_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

namespace auditgame::bench {

uint64_t HeapAllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

int64_t HeapLiveBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace auditgame::bench

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size, kDefault);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, kDefault);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, kDefault);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* p = CountedAlloc(size, static_cast<std::size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { CountedFree(p, kDefault); }
void operator delete[](void* p) noexcept { CountedFree(p, kDefault); }
void operator delete(void* p, std::size_t) noexcept {
  CountedFree(p, kDefault);
}
void operator delete[](void* p, std::size_t) noexcept {
  CountedFree(p, kDefault);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p, kDefault);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p, kDefault);
}
void operator delete(void* p, std::align_val_t alignment) noexcept {
  CountedFree(p, static_cast<std::size_t>(alignment));
}
void operator delete[](void* p, std::align_val_t alignment) noexcept {
  CountedFree(p, static_cast<std::size_t>(alignment));
}
void operator delete(void* p, std::size_t,
                     std::align_val_t alignment) noexcept {
  CountedFree(p, static_cast<std::size_t>(alignment));
}
void operator delete[](void* p, std::size_t,
                       std::align_val_t alignment) noexcept {
  CountedFree(p, static_cast<std::size_t>(alignment));
}
