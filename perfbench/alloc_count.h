#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Global operator-new calls made by the calling thread so far. The traced
/// client links alloc_hook.cc, which replaces the global allocation
/// functions with counting versions; the untraced client links
/// alloc_none.cc and keeps the default allocator, so there this is always 0.
uint64_t ThreadAllocations();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
