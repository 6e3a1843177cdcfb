// Network byte-order helpers: the one way the project reads or writes a big-endian
// wire field.
//
// Every header parser and writer in src/wire, the aggregator's in-place rewrites and
// the NIC's fixed-offset steering peek (PeekFlowKey) go through these, byte by byte;
// nothing casts a struct over frame bytes, so no code depends on alignment or padding.
// tools/tcprx_check's `byteorder` rule bans the htons family and bswap builtins
// everywhere else.

#ifndef SRC_UTIL_BYTE_ORDER_H_
#define SRC_UTIL_BYTE_ORDER_H_

#include <cstdint>
#include <span>

namespace tcprx {

// Reads a big-endian (network order) 16-bit value at `p`.
inline uint16_t LoadBe16(const uint8_t* p) {
  return static_cast<uint16_t>((static_cast<uint16_t>(p[0]) << 8) | p[1]);
}

// Reads a big-endian 32-bit value at `p`.
inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

// Writes a big-endian 16-bit value at `p`.
inline void StoreBe16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v & 0xff);
}

// Writes a big-endian 32-bit value at `p`.
inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>((v >> 16) & 0xff);
  p[2] = static_cast<uint8_t>((v >> 8) & 0xff);
  p[3] = static_cast<uint8_t>(v & 0xff);
}

}  // namespace tcprx

#endif  // SRC_UTIL_BYTE_ORDER_H_
