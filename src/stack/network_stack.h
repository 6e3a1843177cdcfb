// The host network stack: driver entry, optional Receive Aggregation, IP and TCP
// layers, connection demultiplexing, transmit path with optional Acknowledgment
// Offload, and cycle accounting for every stage.
//
// Data flow on receive (native):
//
//   NIC ring -> ReceiveFrame (driver cycles)
//     baseline:  wrap SkBuff (+MAC processing) ------------------+
//     optimized: Aggregator::Push (early demux, chaining) ---+   |
//                                                            v   v
//                                  DeliverHostPacket (non-proto, IP, TCP, copy)
//                                                            |
//                    TcpConnection output -> HandleConnectionOutput
//                       baseline: one full tx-stack pass per ACK
//                       offload:  one pass for the template, per-ACK expansion
//                                 charged to the driver
//                                                            |
//                                               RoutingTable -> NIC
//
// In Xen mode the virtualization stages (bridge, netback, hypervisor, netfront, and
// the extra data copy) are charged between aggregation and the guest stack, exactly
// where they sit in the paper's Figure 5 architecture.

#ifndef SRC_STACK_NETWORK_STACK_H_
#define SRC_STACK_NETWORK_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/core/aggregator.h"
#include "src/cpu/cache_model.h"
#include "src/cpu/charger.h"
#include "src/cpu/cycle_account.h"
#include "src/driver/rx_sink.h"
#include "src/ip/ipv4_layer.h"
#include "src/stack/stack_config.h"
#include "src/tcp/tcp_connection.h"
#include "src/util/event_loop.h"
#include "src/xen/xen_path.h"

namespace tcprx {

// NetworkStack is the driver layer's RxSink: PollDriver delivers frames and batch
// boundaries through that interface, never by including stack headers.
class NetworkStack : public RxSink {
 public:
  // `transmit` puts a finished frame on the given NIC.
  using TransmitFn = std::function<void(int nic_id, std::vector<uint8_t> frame)>;

  NetworkStack(const StackConfig& config, EventLoop& loop, TransmitFn transmit);

  // Registers a local address served by `nic_id` and routes the given remote peer
  // through the same NIC.
  void AddLocalAddress(Ipv4Address local, int nic_id);
  void AddRoute(Ipv4Address dst, int nic_id);

  // ---- Driver entry ---------------------------------------------------------------

  // Processes one raw frame popped from an rx ring; all downstream work (aggregation,
  // protocol processing, ACK transmission) happens synchronously and is charged.
  void ReceiveFrame(PacketPtr frame) override;

  // Work-conserving hook: the poll loop calls this when every rx ring is empty, so
  // partial aggregates never wait while the stack idles (section 3.5).
  void OnReceiveQueueEmpty() override;

  // Per-interrupt bookkeeping (softirq wakeup; domain switches under Xen).
  void ChargeWakeup() override;

  // Driver-context transmit staging. Between BeginDriverBatch and FlushDriverBatch
  // outgoing frames are buffered; FlushDriverBatch(done) releases them at the time
  // the CPU actually finishes the batch, so end-to-end latency includes processing
  // time. Outputs generated outside a driver batch (TCP timers) transmit immediately.
  void BeginDriverBatch() override;
  void FlushDriverBatch(SimTime done) override;

  // ---- Connections -----------------------------------------------------------------

  // Creates a connection owned by the stack. The returned pointer stays valid for the
  // stack's lifetime.
  TcpConnection* CreateConnection(const TcpConnectionConfig& config);

  // Accepts incoming connections on `port`. The callback runs right after the
  // connection object is created (state SYN_RECEIVED).
  using AcceptFn = std::function<void(TcpConnection&)>;
  void Listen(uint16_t port, AcceptFn on_accept);

  // Installs the application's data handler; delivered bytes are charged as the
  // kernel-to-user copy before the handler runs.
  void SetConnectionDataHandler(TcpConnection& conn, TcpConnection::DataFn fn);

  // Installs an application close handler. The stack always unregisters a closed
  // connection from the demux table (freeing the 4-tuple for reuse) before calling it.
  void SetConnectionClosedHandler(TcpConnection& conn, std::function<void()> fn);

  // Iterates all connections this stack owns (diagnostics, workload teardown).
  void ForEachConnection(const std::function<void(TcpConnection&)>& fn) const {
    for (const auto& entry : connections_) {
      fn(*entry->conn);
    }
  }

  // ---- Introspection ---------------------------------------------------------------

  // Observation tap for differential oracles: runs on every host packet entering
  // protocol processing, before any verdict, with aggregation fragment_info intact.
  // Not charged — it models a passive probe, not stack work.
  using HostPacketTapFn = std::function<void(const SkBuff&)>;
  void set_host_packet_tap(HostPacketTapFn fn) { host_packet_tap_ = std::move(fn); }

  const StackConfig& config() const { return config_; }
  CycleAccount& account() { return account_; }
  const CycleAccount& account() const { return account_; }
  Charger& charger() override { return charger_; }
  const CacheModel& cache_model() const { return cache_; }
  const Aggregator* aggregator() const { return aggregator_.get(); }
  const Ipv4Layer& ip_layer() const { return ip_; }
  PacketPool& packet_pool() { return packet_pool_; }
  uint64_t TakeBatchCycles() override { return charger_.TakeBatchCycles(); }

  struct Stats {
    uint64_t frames_received = 0;
    uint64_t frames_dropped_unparseable = 0;
    uint64_t frames_dropped_ip = 0;
    uint64_t frames_dropped_bad_checksum = 0;
    uint64_t frames_dropped_no_connection = 0;
    uint64_t rsts_sent = 0;
    uint64_t connections_accepted = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct ConnectionEntry {
    std::unique_ptr<TcpConnection> conn;
    TcpConnection::DataFn app_on_data;
    std::function<void()> app_on_closed;
  };

  void DeliverHostPacket(SkBuffPtr skb);
  bool VerifyHostPacketChecksum(const SkBuff& skb) const;
  void SendReset(const SkBuff& skb);
  void HandleConnectionOutput(TcpConnection& conn, TcpOutputItem item);
  void ChargeTxStackPass(size_t payload_size, bool is_template);
  void TransmitBuiltFrame(Ipv4Address dst, std::vector<uint8_t> frame);
  TcpConnection* Demux(const SkBuff& skb);
  TcpConnection* AcceptNew(const SkBuff& skb);
  ConnectionEntry& EntryFor(TcpConnection& conn);
  void WireConnection(ConnectionEntry& entry);

  StackConfig config_;
  EventLoop& loop_;
  TransmitFn transmit_;

  CacheModel cache_;
  CycleAccount account_;
  Charger charger_;
  XenPathModel xen_path_;

  PacketPool packet_pool_;
  Ipv4Layer ip_;
  RoutingTable routes_;
  std::unique_ptr<Aggregator> aggregator_;

  std::unordered_map<FlowKey, TcpConnection*, FlowKeyHash> demux_;
  std::vector<std::unique_ptr<ConnectionEntry>> connections_;
  std::unordered_map<uint16_t, AcceptFn> listeners_;
  uint32_t next_iss_ = 20000;
  bool in_driver_batch_ = false;
  std::vector<std::pair<int, std::vector<uint8_t>>> staged_tx_;
  HostPacketTapFn host_packet_tap_;
  Stats stats_;
};

}  // namespace tcprx

#endif  // SRC_STACK_NETWORK_STACK_H_
