#include "src/nic/rss.h"

#include "src/util/logging.h"

namespace tcprx {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

RssHasher::RssHasher(const RssConfig& config, size_t num_queues) : num_queues_(num_queues) {
  TCPRX_CHECK(num_queues >= 1);
  // Derive the 40-byte secret key from the seed with an xorshift stream, the way a
  // driver would load random key material at probe time.
  uint64_t state = (static_cast<uint64_t>(config.key_seed) << 32) | 0x9e3779b9u;
  for (auto& byte : key_) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    byte = static_cast<uint8_t>(state >> 24);
  }

  const size_t entries = RoundUpPow2(config.indirection_entries == 0 ? 1 : config.indirection_entries);
  table_.resize(entries);
  mask_ = static_cast<uint32_t>(entries - 1);
  // Default indirection: queues striped across the table, as Linux programs it. The
  // stripe is counted rather than taken modulo: a divide per entry dominated the cost
  // of building a NIC.
  size_t queue = 0;
  for (uint8_t& entry : table_) {
    entry = static_cast<uint8_t>(queue);
    queue = queue + 1 == num_queues_ ? 0 : queue + 1;
  }
}

uint32_t RssHasher::Hash(const FlowKey& key) const {
  // Input in RSS order: src addr, dst addr, src port, dst port, big-endian.
  std::array<uint8_t, 12> input;
  input[0] = static_cast<uint8_t>(key.src_ip.value >> 24);
  input[1] = static_cast<uint8_t>(key.src_ip.value >> 16);
  input[2] = static_cast<uint8_t>(key.src_ip.value >> 8);
  input[3] = static_cast<uint8_t>(key.src_ip.value);
  input[4] = static_cast<uint8_t>(key.dst_ip.value >> 24);
  input[5] = static_cast<uint8_t>(key.dst_ip.value >> 16);
  input[6] = static_cast<uint8_t>(key.dst_ip.value >> 8);
  input[7] = static_cast<uint8_t>(key.dst_ip.value);
  input[8] = static_cast<uint8_t>(key.src_port >> 8);
  input[9] = static_cast<uint8_t>(key.src_port);
  input[10] = static_cast<uint8_t>(key.dst_port >> 8);
  input[11] = static_cast<uint8_t>(key.dst_port);

  // Toeplitz: for every set bit of the input, XOR in the 32-bit key window starting
  // at that bit position.
  uint32_t result = 0;
  uint32_t window = (static_cast<uint32_t>(key_[0]) << 24) | (static_cast<uint32_t>(key_[1]) << 16) |
                    (static_cast<uint32_t>(key_[2]) << 8) | key_[3];
  size_t next_key_byte = 4;
  for (const uint8_t byte : input) {
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1) {
        result ^= window;
      }
      // Slide the window one bit, pulling the next key bit in from the right.
      const uint8_t next = key_[next_key_byte % key_.size()];
      const uint32_t incoming = (next >> bit) & 1;
      window = (window << 1) | incoming;
      if (bit == 0) {
        ++next_key_byte;
      }
    }
  }
  return result;
}

size_t RssHasher::QueueFor(const FlowKey& key) const {
  if (num_queues_ == 1) {
    return 0;
  }
  return table_[Hash(key) & mask_];
}

}  // namespace tcprx
