// The receive host: N >= 1 per-core shards, each one PollDriver + NetworkStack on its
// own CpuClock, fed by one RSS queue per NIC. Testbed builds it for every core count.
//
// Flow affinity is the organizing principle (FlexTOE-style pipeline locality): a
// connection lives on exactly one core — steered there by the NIC's Toeplitz hash —
// so TCP state, the aggregation flow table and the socket demux are core-private and
// lock-free. What the shards still share (the routing table, the packet-pool
// counters, the software flow director) is charged through InterCoreModel: touching a
// shared line last written by another core costs a cache-line transfer plus lock
// contention, generalizing the single-clock SMP lock model rather than replacing it.
//
// With RSS off the NIC sprays frames round-robin and the shards fall back to
// software steering (Linux RPS): the polling core looks the flow up in the shared
// director, pays the cross-core enqueue, and hands the frame to the owner's backlog.
//
// num_cores == 1 is the paper's serialized host: one shard, one driver, one clock, and
// no steering hook, since a lone core owns every shared line and every flow.

#ifndef SRC_SMP_MULTICORE_HOST_H_
#define SRC_SMP_MULTICORE_HOST_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/driver/poll_driver.h"
#include "src/nic/nic.h"
#include "src/smp/cpu_topology.h"
#include "src/smp/intercore.h"
#include "src/nic/rss.h"
#include "src/stack/network_stack.h"
#include "src/util/event_loop.h"

namespace tcprx {

struct SmpHostConfig {
  // Receive cores, >= 1. One core is the paper's serialized host; the inter-core
  // costs and software steering only engage from two cores on.
  size_t num_cores = 1;
  RssConfig rss;
  bool operator==(const SmpHostConfig&) const = default;
};

class MulticoreHost : private PollDriver::Steering {
 public:
  MulticoreHost(const StackConfig& stack_config, const SmpHostConfig& config,
                EventLoop& loop, NetworkStack::TransmitFn transmit);

  size_t num_cores() const { return shards_.size(); }
  NetworkStack& stack(size_t core) { return *shards_[core]; }
  const NetworkStack& stack(size_t core) const { return *shards_[core]; }
  PollDriver& driver(size_t core) { return *drivers_[core]; }
  CpuClock& cpu(size_t core) { return topology_.core(core); }
  CpuTopology& topology() { return topology_; }
  const InterCoreModel& intercore() const { return intercore_; }

  // The DMA pool the NICs allocate rx frames from — genuinely shared between cores,
  // which is why kPoolCounters is a tracked shared line.
  PacketPool& packet_pool() { return packet_pool_; }

  // Attaches RSS queue c of `nic` to core c's driver. The NIC must have been built
  // with num_rx_queues == num_cores().
  void AttachNic(SimulatedNic* nic);

  // Fan-out of the stack-wide tables to every shard.
  void AddLocalAddress(Ipv4Address local, int nic_id);
  void AddRoute(Ipv4Address dst, int nic_id);
  void Listen(uint16_t port, NetworkStack::AcceptFn on_accept);
  void ForEachConnection(const std::function<void(TcpConnection&)>& fn) const;

  // ---- Aggregated accounting across shards -----------------------------------------
  CycleAccount::Counters SumCounters() const;
  RoutineCycles SumRoutines() const;
  CategoryCycles SumCategories() const;
  uint64_t TotalBusyCycles() const { return topology_.TotalBusyCycles(); }

  uint64_t misdirected_packets() const { return misdirected_; }
  uint64_t backlog_drops() const;

 private:
  // PollDriver::Steering.
  PollDriver* SteerFrame(size_t core, const Packet& frame, Charger& charger) override;
  void ChargeSharedLine(Charger& charger, size_t core, InterCoreModel::SharedLine line,
                        Routine routine);

  SmpHostConfig config_;
  CpuTopology topology_;
  // Declared before the shards and drivers, so it outlives every frame they hold:
  // in flight, backlogged or queued out of order.
  PacketPool packet_pool_;
  std::vector<std::unique_ptr<NetworkStack>> shards_;
  std::vector<std::unique_ptr<PollDriver>> drivers_;
  FlowDirector director_;
  InterCoreModel intercore_;
  uint64_t misdirected_ = 0;
};

}  // namespace tcprx

#endif  // SRC_SMP_MULTICORE_HOST_H_
