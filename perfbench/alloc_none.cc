// Untraced client: default allocator, no counting.
#include "alloc_count.h"

namespace perfbench {

uint64_t ThreadAllocations() { return 0; }

}  // namespace perfbench
