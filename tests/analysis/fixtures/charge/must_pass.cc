// Fixture (analyzed as src/tcp/fixture.cc): the three sanctioned shapes —
// charge in the same function, an annotated caller-pays escape, and primitives
// outside any charged construct. No findings.
#include <cstdint>
#include <cstring>

namespace tcprx {

inline void ChargedCopy(Charger& charger, uint8_t* dst, const uint8_t* src, size_t n) {
  charger.Charge(Routine::kCopyToUser, n);
  memcpy(dst, src, n);
}

// tcprx-check: allow(charge) -- fixture: the caller bills this copy as part of
// its own per-packet pass
inline void CallerPaysCopy(uint8_t* dst, const uint8_t* src, size_t n) {
  memcpy(dst, src, n);
}

inline void DelegatesToCharged(Charger& charger, uint8_t* dst, const uint8_t* src) {
  ChargedCopy(charger, dst, src, 1);
}

}  // namespace tcprx
