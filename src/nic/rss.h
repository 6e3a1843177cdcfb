// Receive Side Scaling: Toeplitz-style flow hashing and the indirection table that
// steers each TCP flow to a fixed NIC rx queue (and therefore to a fixed core).
//
// This is the NIC-hardware half of the multi-core receive subsystem. The paper's SMP
// measurements (sections 2.3, 5.2) treat the receive path of one NIC set as serialized
// by locking; RSS is the standard mechanism ("A Transport-Friendly NIC for
// Multicore/Multiprocessor Systems", Wu et al.) that removes the serialization by
// hashing the 4-tuple so every segment of a connection lands on the same queue. Flow
// affinity is the property the per-core stack shards rely on for lock-free TCP state.

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

// Toeplitz hash over the IPv4 4-tuple plus queue-indirection lookup, as implemented by
// multi-queue NIC hardware (Microsoft RSS specification).
class RssHasher {
 public:
  RssHasher(const RssConfig& config, size_t num_queues);

  // Toeplitz hash of (src ip, dst ip, src port, dst port), network byte order, using
  // the 40-byte secret key.
  uint32_t Hash(const FlowKey& key) const;

  // Queue for the flow: indirection_table[hash & (entries - 1)].
  size_t QueueFor(const FlowKey& key) const;

  size_t num_queues() const { return num_queues_; }
  const std::vector<uint8_t>& indirection_table() const { return table_; }

 private:
  size_t num_queues_;
  std::array<uint8_t, 40> key_{};
  std::vector<uint8_t> table_;  // entry -> queue, power-of-two sized
  uint32_t mask_ = 0;
};

}  // namespace tcprx

#endif  // SRC_NIC_RSS_H_
