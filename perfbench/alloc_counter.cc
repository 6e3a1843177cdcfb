#include "perfbench/alloc_counter.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

bool g_counting = false;
AllocCounts g_counts;

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  if (g_counting) {
    ++g_counts.calls;
    g_counts.bytes += size;
  }
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void SetAllocCounting(bool enabled) { g_counting = enabled; }

AllocCounts AllocCountsNow() { return g_counts; }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return perfbench::CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
