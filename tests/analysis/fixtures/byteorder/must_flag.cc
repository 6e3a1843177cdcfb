// Fixture (analyzed as src/tcp/fixture.cc): byte-swap calls outside the helper
// files; every function must produce a [byteorder] finding.
#include <cstdint>

namespace tcprx {

inline uint16_t PosixSwap(uint16_t v) { return htons(v); }

inline uint32_t BuiltinSwap(uint32_t v) { return __builtin_bswap32(v); }

}  // namespace tcprx
