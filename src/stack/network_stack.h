// The host network stack: driver entry, optional Receive Aggregation, IP and TCP
// layers, connection demultiplexing, transmit path with optional Acknowledgment
// Offload, and cycle accounting for every stage.
//
// Data flow on receive (native):
//
//   NIC ring -> ReceiveFrame (driver cycles)
//     baseline:  wrap SkBuff (+MAC processing) ------------------+
//     optimized: Aggregator::Push -> DeliverFinished --------+   |
//                                                            v   v
//                                  DeliverHostPacket (non-proto, IP, TCP, copy)
//                                                            |
//                    TcpConnection output -> Output (TcpConnection::Owner)
//                       baseline: one full tx-stack pass per ACK
//                       offload:  one pass for the template, per-ACK expansion
//                                 charged to the driver
//                                                            |
//                                               RoutingTable -> NIC
//
// In Xen mode the virtualization stages (bridge, netback, hypervisor, netfront, and
// the extra data copy) are charged between aggregation and the guest stack, exactly
// where they sit in the paper's Figure 5 architecture.
//
// The copy to the application is charged, never performed: the stack owns every
// connection it creates (TcpConnection::Owner) and charges the size of each delivery
// reported to it, while the application reads the bytes where they lie through the
// connection's on_data.

#ifndef SRC_STACK_NETWORK_STACK_H_
#define SRC_STACK_NETWORK_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
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
#include "src/util/flat_map.h"
#include "src/xen/xen_path.h"

namespace tcprx {

// NetworkStack is the driver layer's RxSink: PollDriver delivers frames and batch
// boundaries through that interface, never by including stack headers.
class NetworkStack : public RxSink, private TcpConnection::Owner {
 public:
  // `transmit` puts a finished frame on the given NIC.
  using TransmitFn = std::function<void(int nic_id, std::vector<uint8_t>&& frame)>;

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
  // The driver's flush: the staged batch goes unqueued into the driver's `held`, with
  // the slot it reserved at `done`, and the driver sends it in place or queues it
  // (src/driver/rx_sink.h).
  void HoldDriverBatch(SimTime done, HeldBatch& held) override;

  // ---- Connections -----------------------------------------------------------------

  // Creates a connection owned by the stack. The returned pointer stays valid for the
  // stack's lifetime. The stack charges every byte the connection delivers as the
  // kernel-to-user copy (Delivered), whatever data handler the application installs
  // with set_on_data. Once CLOSED, a connection's 4-tuple is free for a new one (Demux).
  TcpConnection* CreateConnection(const TcpConnectionConfig& config);

  // Accepts incoming connections on `port`. The callback runs right after the
  // connection object is created (state SYN_RECEIVED).
  using AcceptFn = std::function<void(TcpConnection&)>;
  void Listen(uint16_t port, AcceptFn on_accept);

  // conn.set_on_data(fn): a shim for perfbench's traced bed, which still calls it.
  void SetConnectionDataHandler(TcpConnection& conn, TcpConnection::DataFn fn) {
    conn.set_on_data(std::move(fn));
  }

  // Iterates all connections this stack owns (diagnostics, workload teardown).
  void ForEachConnection(const std::function<void(TcpConnection&)>& fn) const {
    for (const auto& conn : connections_) {
      fn(*conn);
    }
  }

  // ---- Introspection ---------------------------------------------------------------

  // Observation tap for differential oracles: runs on every host packet entering
  // protocol processing, before any verdict, with its fragment_info intact.
  // Not charged — it models a passive probe, not stack work. It may rewrite the
  // packet's fragment_info: the fuzzer's self-test plants a bug that way.
  using HostPacketTapFn = std::function<void(SkBuff&)>;
  void set_host_packet_tap(HostPacketTapFn fn) { host_packet_tap_ = std::move(fn); }

  const StackConfig& config() const { return config_; }
  CycleAccount& account() { return account_; }
  const CycleAccount& account() const { return account_; }
  Charger& charger() override { return charger_; }
  const Aggregator* aggregator() const { return aggregator_.get(); }
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
  // Hardware LRO's driver, sk_buff and softirq work for one host packet.
  void ChargeLroHostPacket();
  // Drops `unparsed` (a frame the aggregator handed back), then delivers finished_ in
  // order, each host packet after its epilogue (aggregation's or LRO's), and empties it.
  void DeliverFinished(PacketPtr unparsed);
  void DeliverHostPacket(SkBuffPtr skb);
  void SendReset(const SkBuff& skb);
  // TcpConnection::Owner.
  void Output(TcpConnection& conn, TcpOutputItem&& item) override;
  void Delivered(size_t bytes) override;
  void ChargeTxStackPass(size_t payload_size, bool is_template);
  void TransmitBuiltFrame(Ipv4Address dst, std::vector<uint8_t>&& frame);
  TcpConnection* Demux(const SkBuff& skb);
  TcpConnection* AcceptNew(const SkBuff& skb);

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
  Aggregator::HostPackets finished_;  // what the aggregator just finished; reused

  FlatMap<FlowKey, TcpConnection*, FlowKeyHash> demux_;
  std::vector<std::unique_ptr<TcpConnection>> connections_;
  std::unordered_map<uint16_t, AcceptFn> listeners_;
  uint32_t next_iss_ = 20000;
  bool in_driver_batch_ = false;
  using TxFrames = std::vector<std::pair<int, std::vector<uint8_t>>>;
  TxFrames staged_tx_;
  // A flushed batch waiting for its CPU completion; it is its own completion event,
  // queued by FlushDriverBatch or fired by the driver that held it.
  struct TxBatch final : EventLoop::Target {
    explicit TxBatch(NetworkStack& s) : stack(s) {}
    void Fire(EventLoop::Slot slot) override;  // transmits the frames

    NetworkStack& stack;
    TxFrames frames;
  };
  // Batches in recycled slots: staging reuses a drained batch's storage.
  std::vector<std::unique_ptr<TxBatch>> tx_batches_;
  std::vector<TxBatch*> free_tx_batches_;
  HostPacketTapFn host_packet_tap_;
  Stats stats_;
};

}  // namespace tcprx

#endif  // SRC_STACK_NETWORK_STACK_H_
