// Configuration of the system under test.
//
// One StackConfig selects everything the paper's evaluation varies: the system type
// (native uniprocessor, native SMP, Xen guest), the CPU prefetch mode, whether Receive
// Aggregation and Acknowledgment Offload are enabled, and the Aggregation Limit.

#ifndef SRC_STACK_STACK_CONFIG_H_
#define SRC_STACK_STACK_CONFIG_H_

#include <cstdint>

#include "src/cpu/cache_model.h"
#include "src/cpu/cost_params.h"

namespace tcprx {

enum class SystemType {
  kNativeUp,   // native Linux, uniprocessor kernel
  kNativeSmp,  // native Linux, SMP kernel (lock-prefixed atomics on the hot path)
  kXenGuest,   // Linux guest on Xen, driver-domain networking
};

const char* SystemTypeName(SystemType s);

struct StackConfig {
  SystemType system = SystemType::kNativeUp;
  PrefetchMode prefetch = PrefetchMode::kFull;

  // The paper's two optimizations. ACK offload without aggregation is permitted but
  // pointless (the TCP layer almost never owes more than one ACK at a time), exactly
  // as the paper notes in section 4.3.
  bool receive_aggregation = false;
  bool ack_offload = false;
  size_t aggregation_limit = 20;

  // Ablation: perform the aggregation in NIC hardware (Neterion-style Large Receive
  // Offload, section 6 of the paper). The coalescing logic is identical, but the
  // early demux costs nothing on the host CPU and the *driver* also runs once per
  // host packet instead of once per wire packet — LRO's extra advantage over the
  // paper's software approach. The NIC in question offers no Acknowledgment Offload,
  // but ack_offload remains independently selectable for the ablation. The coalescing
  // runs in the host's aggregator, so it needs receive_aggregation (ConfigErrors).
  bool hardware_lro = false;

  // The calibrated cost table (cost_params.h) under the name `config.costs`. Not a
  // field: nothing sets it, operator== ignores it, and src/ code reads kCosts.
  static constexpr const CostParams& costs = kCosts;

  // Mutation knobs for the differential fuzzer's self-tests (tools/tcprx_fuzz):
  // each deliberately breaks one equivalence invariant so the harness's oracles can
  // be shown to catch it. Never enabled by real configurations.
  bool debug_coalesce_fragment_acks = false;  // keep only the head segment's entry
  bool debug_skip_idle_flush = false;         // break the work-conserving flush (3.5)

  // Applied to accepted (passive-open) connections.
  bool delayed_acks = true;
  bool sack = false;
  // Build real TCP checksums on transmit (strong end-to-end checking, slower
  // simulation). Benchmarks disable this to model tx checksum offload.
  bool fill_tcp_checksums = true;
  bool operator==(const StackConfig&) const = default;

  static StackConfig Baseline(SystemType s) {
    StackConfig c;
    c.system = s;
    return c;
  }
  static StackConfig Optimized(SystemType s) {
    StackConfig c;
    c.system = s;
    c.receive_aggregation = true;
    c.ack_offload = true;
    return c;
  }

  bool smp() const { return system == SystemType::kNativeSmp; }
  bool xen() const { return system == SystemType::kXenGuest; }
};

}  // namespace tcprx

#endif  // SRC_STACK_STACK_CONFIG_H_
