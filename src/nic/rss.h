// Receive Side Scaling: Toeplitz-style flow hashing and the indirection table that
// steers each TCP flow to a fixed NIC rx queue (and therefore to a fixed core).
//
// This is the NIC-hardware half of the multi-core receive subsystem. The paper's SMP
// measurements (sections 2.3, 5.2) treat the receive path of one NIC set as serialized
// by locking; RSS is the standard mechanism ("A Transport-Friendly NIC for
// Multicore/Multiprocessor Systems", Wu et al.) that removes the serialization by
// hashing the 4-tuple so every segment of a connection lands on the same queue. Flow
// affinity is the property the per-core stack shards rely on for lock-free TCP state.
//
// The hash runs on every frame, so it is table-driven: the Toeplitz hash is linear
// over XOR, so each 4-bit nibble of the 96-bit input contributes a fixed XOR of key
// windows. The constructor fills 24 tables of 16 entries (1.5 KB) with those sums, and
// Hash is 24 loads and XORs. Only a NIC with several rx queues and RSS on owns a
// hasher; a single-queue NIC builds neither the tables nor the indirection table.

#ifndef SRC_NIC_RSS_H_
#define SRC_NIC_RSS_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/wire/flow.h"

namespace tcprx {

struct RssConfig {
  // When false (and the NIC has multiple queues) frames are sprayed round-robin per
  // packet instead of hashed per flow — the misdirected-flow baseline that forces the
  // software cross-core handoff path.
  bool enabled = true;
  bool operator==(const RssConfig&) const = default;
};

using RssKey = std::array<uint8_t, 40>;

// The 40-byte Toeplitz secret key every NIC loads (real drivers load random key
// material at probe time; a fixed key keeps runs reproducible).
inline constexpr RssKey kRssSecretKey = {
    0xfb, 0x06, 0x25, 0x90, 0x01, 0x64, 0x26, 0x83, 0x9b, 0xe6, 0xee, 0x3a, 0xe1, 0x48,
    0xfb, 0xa8, 0xa5, 0x74, 0xcd, 0x7f, 0xee, 0x80, 0x29, 0x56, 0xac, 0xe3, 0x1d, 0x3a,
    0xf9, 0x8f, 0xbf, 0x50, 0xd6, 0xca, 0x6c, 0x3c, 0x17, 0x63, 0xc4, 0x71};

// Indirection-table entries, as on real NICs; a power of two, so a hash masks into it.
inline constexpr size_t kRssIndirectionEntries = 128;
static_assert((kRssIndirectionEntries & (kRssIndirectionEntries - 1)) == 0);

// Toeplitz hash over the IPv4 4-tuple plus queue-indirection lookup, as implemented by
// multi-queue NIC hardware (Microsoft RSS specification).
class RssHasher {
 public:
  RssHasher(size_t num_queues, const RssKey& key);

  // Toeplitz hash of (src ip, dst ip, src port, dst port), network byte order, using
  // the 40-byte secret key.
  uint32_t Hash(const FlowKey& key) const;

  // Queue for the flow: indirection_table[hash & (entries - 1)].
  size_t QueueFor(const FlowKey& key) const {
    return table_[Hash(key) & (kRssIndirectionEntries - 1)];
  }

  const std::array<uint8_t, kRssIndirectionEntries>& indirection_table() const {
    return table_;
  }

 private:
  static constexpr size_t kInputNibbles = 24;  // 96 input bits

  // nibble_xor_[n][v]: the XOR of the key windows of the set bits of value v at input
  // nibble n (bit 3 of v is the nibble's first input bit).
  std::array<std::array<uint32_t, 16>, kInputNibbles> nibble_xor_{};
  std::array<uint8_t, kRssIndirectionEntries> table_{};  // entry -> queue
};

}  // namespace tcprx

#endif  // SRC_NIC_RSS_H_
