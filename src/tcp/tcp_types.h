// TCP sequence-space arithmetic and connection identification.

#ifndef SRC_TCP_TCP_TYPES_H_
#define SRC_TCP_TCP_TYPES_H_

#include <cstdint>
#include <functional>

// FlowKey used to be defined here; it now lives with the address types in the wire
// layer so the NIC-level consumers (RSS, raw views) need no upward include.
#include "src/wire/flow.h"
#include "src/wire/ipv4.h"

namespace tcprx {

// Modular (wrap-safe) comparisons over the 32-bit TCP sequence space.
inline bool SeqGe(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) >= 0; }

}  // namespace tcprx

#endif  // SRC_TCP_TCP_TYPES_H_
