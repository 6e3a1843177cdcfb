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
#include <cstdint>
#include <vector>

#include "src/wire/flow.h"

namespace tcprx {

struct RssConfig {
  // When false (and the NIC has multiple queues) frames are sprayed round-robin per
  // packet instead of hashed per flow — the misdirected-flow baseline that forces the
  // software cross-core handoff path.
  bool enabled = true;
  // Seeds the 40-byte Toeplitz secret key (real NICs load the key from the driver;
  // the sim derives it deterministically so runs are reproducible).
  uint32_t key_seed = 0x6d5a56da;
  // Number of indirection-table entries (rounded up to a power of two). Real NICs use
  // 128; more entries give the OS finer rebalancing granularity.
  size_t indirection_entries = 128;
  bool operator==(const RssConfig&) const = default;
};

using RssKey = std::array<uint8_t, 40>;

// The 40-byte secret key `config.key_seed` derives.
RssKey RssSecretKey(const RssConfig& config);

// Toeplitz hash over the IPv4 4-tuple plus queue-indirection lookup, as implemented by
// multi-queue NIC hardware (Microsoft RSS specification).
class RssHasher {
 public:
  RssHasher(const RssConfig& config, size_t num_queues);

  // Toeplitz hash of (src ip, dst ip, src port, dst port), network byte order, using
  // the 40-byte secret key.
  uint32_t Hash(const FlowKey& key) const;

  // Queue for the flow: indirection_table[hash & (entries - 1)].
  size_t QueueFor(const FlowKey& key) const { return table_[Hash(key) & mask_]; }

  const std::vector<uint8_t>& indirection_table() const { return table_; }

 private:
  static constexpr size_t kInputNibbles = 24;  // 96 input bits

  // nibble_xor_[n][v]: the XOR of the key windows of the set bits of value v at input
  // nibble n (bit 3 of v is the nibble's first input bit).
  std::array<std::array<uint32_t, 16>, kInputNibbles> nibble_xor_{};
  std::vector<uint8_t> table_;  // entry -> queue, power-of-two sized
  uint32_t mask_ = 0;
};

}  // namespace tcprx

#endif  // SRC_NIC_RSS_H_
