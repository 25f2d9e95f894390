#ifndef AUDIT_GAME_BENCH_ALLOC_COUNT_H_
#define AUDIT_GAME_BENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace auditgame::bench {

/// Number of global operator-new calls since process start. Linking
/// bench/alloc_count.cc into a binary replaces the global allocation
/// functions with counting versions; the smoke benches read a delta around
/// a measured loop to report allocations-per-solve — the steady-state
/// allocation gate (see docs/DESIGN.md "Numeric kernels and solver
/// scratch").
/// Thread-safe (relaxed atomic).
uint64_t HeapAllocationCount();

/// Bytes requested through global operator new and not yet deleted (the
/// requested sizes, not the allocator's block sizes). A delta around
/// building some objects is the heap they keep. Thread-safe (relaxed
/// atomic).
int64_t HeapLiveBytes();

}  // namespace auditgame::bench

#endif  // AUDIT_GAME_BENCH_ALLOC_COUNT_H_
