// Inter-core cost model: what sharing state between cores costs.
//
// Generalizes the existing SMP lock model (cpu/cost_params.h) instead of replacing
// it: a lock-prefixed atomic still costs lock_cycles_smp everywhere, and on top of
// that, touching a *shared cache line last written by another core* costs a
// cache-line transfer (HITM snoop, ~hundreds of cycles on real parts). The lines
// tracked are the ones the per-core receive shards genuinely share: the routing
// table, the packet-pool counters, and the flow-director table. A flow-affine
// workload (RSS on) touches them with high core locality, so transfers are rare; a
// misdirected workload (RSS off) pays a transfer plus a backlog handoff per packet.

#ifndef SRC_SMP_INTERCORE_H_
#define SRC_SMP_INTERCORE_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/tcp/tcp_types.h"
#include "src/util/annotations.h"
#include "src/util/flat_map.h"

namespace tcprx {

struct InterCoreCostParams {
  // Reading a cache line dirty in another core's cache (cross-core HITM transfer).
  uint32_t cache_line_transfer_cycles = 192;
  // Software steering of one misdirected frame to its owning core (Linux RPS style:
  // flow-hash lookup, per-core backlog enqueue, amortized IPI).
  uint32_t cross_core_enqueue_cycles = 450;
  // Extra cost of a contended lock acquisition beyond the uncontended lock-prefixed
  // RMW, charged when the lock's line has to move between cores.
  uint32_t lock_contention_cycles = 60;
  bool operator==(const InterCoreCostParams&) const = default;
};

// Ownership tracker for the cache lines the shards share. Deterministic: a touch by
// the owning core is free (the base costs already include local-cache pricing); a
// touch by any other core charges a transfer and moves ownership.
class InterCoreModel {
 public:
  enum class SharedLine : size_t {
    kRoutingTable,   // route + neighbour entries consulted on every transmit
    kPoolCounters,   // global packet-pool alloc/free counters
    kFlowDirector,   // flow -> core table consulted by software steering
    kListenerTable,  // listen demux shared until a flow is established
  };
  static constexpr size_t kSharedLineCount = 4;

  explicit InterCoreModel(const InterCoreCostParams& costs) : costs_(costs) {}

  // Cycles core `core` pays to touch `line`; transfers ownership to `core`.
  uint64_t TouchCycles(size_t core, SharedLine line) {
    int& owner = owner_[static_cast<size_t>(line)];
    if (owner == static_cast<int>(core)) {
      return 0;
    }
    const bool first_touch = owner < 0;
    owner = static_cast<int>(core);
    if (first_touch) {
      return 0;  // compulsory miss is in the base cost model
    }
    ++transfers_;
    return costs_.cache_line_transfer_cycles;
  }

  const InterCoreCostParams& costs() const { return costs_; }
  uint64_t transfers() const { return transfers_; }

 private:
  InterCoreCostParams costs_ TCPRX_SHARED;  // immutable after construction
  // Written by every shard that touches a shared line; serialized by the
  // single-threaded event loop, which is what makes the model deterministic.
  std::array<int, kSharedLineCount> owner_ TCPRX_GUARDED_BY(event_loop) = {-1, -1, -1, -1};
  uint64_t transfers_ TCPRX_GUARDED_BY(event_loop) = 0;
};

// Flow -> owning-core table (the software analogue of the RSS indirection table,
// used when hardware steering is off). The first core to see a flow becomes its
// owner, exactly like Linux RPS without accelerated RFS.
class FlowDirector {
 public:
  // Returns the owning core for `key`, registering `fallback` as owner on first
  // sight.
  size_t OwnerFor(const FlowKey& key, size_t fallback) {
    return *owners_.TryEmplace(key, fallback).first;
  }

  void Forget(const FlowKey& key) { owners_.Erase(key); }

  size_t flows() const { return owners_.size(); }

 private:
  // First-toucher registration from any shard; serialized by the event loop.
  FlatMap<FlowKey, size_t, FlowKeyHash> owners_ TCPRX_GUARDED_BY(event_loop);
};

}  // namespace tcprx

#endif  // SRC_SMP_INTERCORE_H_
