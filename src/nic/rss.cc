#include "src/nic/rss.h"

#include "src/util/logging.h"

namespace tcprx {

RssHasher::RssHasher(size_t num_queues, const RssKey& key) {
  TCPRX_CHECK(num_queues >= 1);
  TCPRX_CHECK_MSG(num_queues <= size_t{1} << 8, "RSS queue ids are stored in one byte");

  // Toeplitz XORs in, for each set input bit i, the 32-bit key window starting at key
  // bit i. Input bit 4n + j (j = 0 the nibble's first bit) is bit 3 - j of nibble n's
  // value. Each table is filled by doubling from its low bit up: the entries below a
  // bit are complete, and setting that bit adds its window.
  for (size_t n = 0; n < kInputNibbles; ++n) {
    uint64_t bits = 0;  // the 64 key bits from the start of the nibble's byte
    for (size_t b = 0; b < 8; ++b) {
      bits = (bits << 8) | key[n / 2 + b];
    }
    std::array<uint32_t, 16>& t = nibble_xor_[n];  // t[0] stays 0
    for (size_t j = 4; j-- > 0;) {
      const auto window = static_cast<uint32_t>((bits << ((4 * n + j) % 8)) >> 32);
      const size_t value_bit = size_t{8} >> j;
      for (size_t v = 0; v < value_bit; ++v) {
        t[v | value_bit] = t[v] ^ window;
      }
    }
  }

  // Default indirection: queues striped across the table, as Linux programs it. The
  // stripe is counted rather than taken modulo: a divide per entry dominated the cost
  // of building a NIC.
  size_t queue = 0;
  for (uint8_t& entry : table_) {
    entry = static_cast<uint8_t>(queue);
    queue = queue + 1 == num_queues ? 0 : queue + 1;
  }
}

uint32_t RssHasher::Hash(const FlowKey& key) const {
  // Input in RSS order: src addr, dst addr, src port, dst port, big-endian, read a
  // nibble at a time from the top.
  const uint32_t words[3] = {key.src_ip.value, key.dst_ip.value,
                             static_cast<uint32_t>(key.src_port) << 16 | key.dst_port};
  uint32_t result = 0;
  size_t n = 0;
  for (const uint32_t word : words) {
    for (int shift = 28; shift >= 0; shift -= 4, ++n) {
      result ^= nibble_xor_[n][(word >> shift) & 0xf];
    }
  }
  return result;
}

}  // namespace tcprx
