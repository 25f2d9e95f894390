// Counting replacements for the global allocation functions, linked into
// perf_client_traced only. The count is per thread, so the replay's worker
// threads each attribute allocations to their own solves.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

thread_local uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  ++t_allocations;
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc requires size to be a multiple of the alignment.
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) / alignment * alignment);
}

}  // namespace

namespace perfbench {

uint64_t ThreadAllocations() { return t_allocations; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size, alignof(std::max_align_t));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, alignof(std::max_align_t));
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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
