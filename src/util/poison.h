// AddressSanitizer annotations for recycled storage.
//
// Memory that sits in a free list is still owned by the process, so AddressSanitizer
// would let a stale pointer read it. Poisoning it on the way in and unpoisoning it on
// the way out makes such a read fault as a use after free would. Without
// AddressSanitizer both calls compile to nothing.

#ifndef SRC_UTIL_POISON_H_
#define SRC_UTIL_POISON_H_

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define TCPRX_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCPRX_ASAN 1
#endif
#endif

#if defined(TCPRX_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace tcprx {

inline void PoisonRecycled([[maybe_unused]] const void* p, [[maybe_unused]] size_t size) {
#if defined(TCPRX_ASAN)
  __asan_poison_memory_region(p, size);
#endif
}

inline void UnpoisonRecycled([[maybe_unused]] const void* p, [[maybe_unused]] size_t size) {
#if defined(TCPRX_ASAN)
  __asan_unpoison_memory_region(p, size);
#endif
}

}  // namespace tcprx

#endif  // SRC_UTIL_POISON_H_
