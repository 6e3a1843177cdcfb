// Fixture (analyzed as src/tcp/fixture.cc): the sanctioned spelling of what
// must_flag.cc does; no findings.
#include <cstdint>

#include "src/util/byte_order.h"

namespace tcprx {

inline uint16_t BufferLoad(const uint8_t* p) { return LoadBe16(p); }

}  // namespace tcprx
