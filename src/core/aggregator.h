// Receive Aggregation (the paper's first contribution, section 3).
//
// The aggregator sits between the NIC driver and the network stack, at the entry point
// of receive processing. It consumes raw frames from the per-CPU aggregation queue and
// coalesces in-sequence TCP segments of the same connection into one aggregated host
// packet, chaining fragment payloads without copying, so every per-packet cost above
// it (buffer management, non-protocol plumbing, TCP/IP traversal, and in Xen the whole
// virtualization path) is paid once per aggregate instead of once per wire packet.
//
// Eligibility rules (section 3.1) are enforced literally:
//   * valid TCP/IPv4, no IP options, no IP fragmentation, valid IP header checksum;
//   * TCP checksum already verified by the NIC (no aggregation without rx checksum
//     offload — verifying in software would erase the win);
//   * non-empty payload (pure ACKs, and thus duplicate ACKs, always bypass);
//   * no SYN/FIN/RST/URG flags (off the common path => untouched);
//   * option block contains nothing but padding and at most a timestamp;
//   * in sequence: seq == previous seq + previous length, and the ACK number and the
//     aggregate never shrink.
//
// Anything that fails a rule is delivered to the stack unmodified, *after* any partial
// aggregate of the same flow, preserving per-flow ordering (section 3.1, last
// paragraph). Aggregation is work-conserving: the driver calls FlushAll() whenever the
// aggregation queue runs dry, so a lone packet is never delayed (section 3.5).

#ifndef SRC_CORE_AGGREGATOR_H_
#define SRC_CORE_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/tcp/tcp_types.h"

namespace tcprx {

struct AggregatorConfig {
  // Maximum network packets coalesced into one host packet (the paper settles on 20,
  // section 5.2). A limit of 1 must behave identically to no aggregation (section 5.5).
  size_t aggregation_limit = 20;
};

// Why a packet was not (or could no longer be) aggregated. Indexed into Stats.
enum class AggrBypassReason {
  kNotTcp,          // unparseable / non-IPv4 / non-TCP
  kIpOptions,       // IP header carries options
  kIpFragment,      // IP fragmentation in use
  kBadIpChecksum,   // IP header checksum invalid
  kNoNicChecksum,   // NIC did not verify the TCP checksum
  kZeroPayload,     // pure ACK
  kSpecialFlags,    // SYN/FIN/RST/URG present
  kBadOptions,      // options beyond (padded) timestamp
  kCount,
};

class Aggregator {
 public:
  // Host packets (aggregated or passthrough) leave through `deliver`, in per-flow
  // order. Frames that are not TCP/IPv4 at all leave through `deliver_raw` (e.g. to a
  // non-IP protocol handler); if unset they are dropped and counted.
  using DeliverFn = std::function<void(SkBuffPtr)>;
  using DeliverRawFn = std::function<void(PacketPtr)>;

  Aggregator(const AggregatorConfig& config, DeliverFn deliver);

  void set_deliver_raw(DeliverRawFn fn) { deliver_raw_ = std::move(fn); }

  // Consumes one raw frame from the aggregation queue.
  void Push(PacketPtr frame);

  // Work-conserving flush: delivers every partial aggregate immediately. Called by the
  // driver loop when it runs out of packets to feed.
  void FlushAll();

  // Flushes only the given flow (used when a bypassing packet of that flow must not
  // overtake its partial aggregate).
  void FlushFlow(const FlowKey& key);

  struct Stats {
    uint64_t pushed = 0;                // frames consumed
    uint64_t aggregated_segments = 0;   // frames that landed in an aggregate of size >1
    uint64_t host_packets = 0;          // SkBuffs delivered (any kind)
    uint64_t aggregates_delivered = 0;  // host packets with >1 segment
    uint64_t passthrough = 0;           // ineligible frames delivered unmodified
    uint64_t limit_flushes = 0;         // aggregates closed by the aggregation limit
    uint64_t idle_flushes = 0;          // aggregates closed by FlushAll (queue empty)
    uint64_t mismatch_flushes = 0;      // closed because the next packet didn't chain
    uint64_t raw_delivered = 0;         // non-TCP frames handed to deliver_raw
    uint64_t raw_dropped = 0;
    uint64_t bypass[static_cast<size_t>(AggrBypassReason::kCount)] = {};
  };
  const Stats& stats() const { return stats_; }
  size_t PendingFlows() const { return table_.size(); }

 private:
  // A flow's aggregate under construction. Everything TryAppend and the header rewrite
  // need comes from `skb->fragment_info` and the head's and last fragment's views.
  struct Partial {
    SkBuffPtr skb;
    size_t total_payload = 0;
  };

  // Returns nullopt when eligible; otherwise the reason for bypassing.
  struct Eligibility {
    bool eligible = false;
    AggrBypassReason reason = AggrBypassReason::kCount;
  };
  Eligibility CheckEligibility(const Packet& frame) const;

  void StartPartial(const FlowKey& key, PacketPtr frame);
  bool TryAppend(Partial& partial, PacketPtr& frame);
  void Finalize(const FlowKey& key, bool by_limit);
  void RewriteAggregateHeader(Partial& partial);
  void DeliverSkb(SkBuffPtr skb);

  AggregatorConfig config_;
  DeliverFn deliver_;
  DeliverRawFn deliver_raw_;
  std::unordered_map<FlowKey, Partial, FlowKeyHash> table_;
  std::vector<FlowKey> flow_order_;  // insertion order, for deterministic flushes
  Stats stats_;
};

}  // namespace tcprx

#endif  // SRC_CORE_AGGREGATOR_H_
