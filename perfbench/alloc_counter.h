// Heap-allocation counting for the benchmark binary.
//
// alloc_counter.cc replaces the global operator new/delete. While counting is on,
// every allocation adds one call and its requested size; the benchmark turns it on
// for the measurement window only. The process is single-threaded.

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

void SetAllocCounting(bool enabled);
AllocCounts AllocCountsNow();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
