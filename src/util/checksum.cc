#include "src/util/checksum.h"

#include "src/util/byte_order.h"

namespace tcprx {

// The 64-bit sum is kept modulo 2^64 - 1: a carry out of bit 63 wraps around into
// bit 0. Since 2^16, 2^32 and 2^64 are all 1 modulo 0xffff, that sum folds to the same
// 16-bit one's-complement sum as adding the data a 16-bit word at a time, and it is 0
// only when every word added was 0.
void ChecksumAccumulator::AddWithCarry(uint64_t value) {
  sum_ += value;
  sum_ += sum_ < value ? 1 : 0;
}

void ChecksumAccumulator::Add(std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t i = 0;
  if (odd_ && !data.empty()) {
    // Previous region ended mid-word: this byte is the low lane of the pending word.
    AddWithCarry(p[0]);
    odd_ = false;
    i = 1;
  }
  // Eight bytes per step, as one big-endian 64-bit word: four 16-bit words at once.
  for (; i + 8 <= data.size(); i += 8) {
    AddWithCarry(static_cast<uint64_t>(LoadBe32(p + i)) << 32 | LoadBe32(p + i + 4));
  }
  for (; i + 1 < data.size(); i += 2) {
    AddWithCarry(LoadBe16(p + i));
  }
  if (i < data.size()) {
    AddWithCarry(static_cast<uint64_t>(p[i]) << 8);
    odd_ = true;
  }
}

void ChecksumAccumulator::AddWord(uint16_t word) {
  if (odd_) {
    // The accumulator sits mid-word: this word's high byte completes the pending
    // word's low lane and its low byte opens the next word's high lane, i.e. the
    // byte-swapped lanes (RFC 1071 section 2(B) odd-offset rule). Parity is
    // unchanged by a 2-byte insertion, so odd_ stays set.
    AddWithCarry(static_cast<uint16_t>((word >> 8) | (word << 8)));
  } else {
    AddWithCarry(word);
  }
}

uint16_t ChecksumAccumulator::FoldedSum() const {
  uint64_t s = sum_;
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  return static_cast<uint16_t>(s);
}

uint16_t ChecksumAccumulator::Finish() const {
  return static_cast<uint16_t>(~FoldedSum() & 0xffff);
}

uint16_t InternetChecksum(std::span<const uint8_t> data) {
  ChecksumAccumulator acc;
  acc.Add(data);
  return acc.Finish();
}

namespace {

// HC' = ~(~HC + ~m + m') per RFC 1624 eqn. 3, computed in one's complement.
uint16_t OnesComplementAdd(uint32_t a, uint32_t b) {
  uint32_t s = a + b;
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  return static_cast<uint16_t>(s);
}

}  // namespace

uint16_t ChecksumUpdateWord(uint16_t old_checksum, uint16_t old_word, uint16_t new_word) {
  uint16_t sum = OnesComplementAdd(static_cast<uint16_t>(~old_checksum & 0xffff),
                                   static_cast<uint16_t>(~old_word & 0xffff));
  sum = OnesComplementAdd(sum, new_word);
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint16_t ChecksumUpdateDword(uint16_t old_checksum, uint32_t old_dword, uint32_t new_dword) {
  uint16_t c = old_checksum;
  c = ChecksumUpdateWord(c, static_cast<uint16_t>(old_dword >> 16),
                         static_cast<uint16_t>(new_dword >> 16));
  c = ChecksumUpdateWord(c, static_cast<uint16_t>(old_dword & 0xffff),
                         static_cast<uint16_t>(new_dword & 0xffff));
  return c;
}

}  // namespace tcprx
