// SkBuff: the host network stack's packet metadata structure (Linux sk_buff analogue).
//
// An SkBuff wraps one "host packet" as the stack sees it. For an ordinary packet that
// is a single frame; for an aggregated packet (section 3.2 of the paper) the head
// frame carries the rewritten TCP/IP header and the first payload, and `frags` chains
// the payload of the subsequent network packets without copying. The per-fragment
// metadata the modified TCP layer needs (ack numbers for congestion control, segment
// boundaries for ACK generation) rides in `fragment_info`, exactly as the paper stores
// it "in the packet metadata structure (sk_buff)".
//
// SkBuffs are recycled: SkBuffPtr's deleter clears one and keeps it, with the capacity
// of its vectors, for the next Wrap on the same thread, the way Linux keeps sk_buff heads
// in a slab cache.

#ifndef SRC_BUFFER_SKBUFF_H_
#define SRC_BUFFER_SKBUFF_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/buffer/packet.h"
#include "src/wire/frame.h"

namespace tcprx {

// Per-network-packet record kept on an aggregated SkBuff.
struct FragmentInfo {
  uint32_t seq = 0;          // first sequence number of the fragment's payload
  uint32_t ack = 0;          // the fragment's TCP acknowledgment number
  uint16_t window = 0;       // the fragment's advertised window
  uint32_t payload_len = 0;  // payload bytes in this fragment
};

struct SkBuff;

// Deleter of SkBuffPtr: returns the SkBuff to this thread's free list (or frees it when
// the list is full).
struct SkBuffRecycler {
  void operator()(SkBuff* skb) const;
};

using SkBuffPtr = std::unique_ptr<SkBuff, SkBuffRecycler>;

struct SkBuff {
  // The frame whose headers describe this host packet. For aggregated packets the
  // headers here have been rewritten by the aggregation engine.
  PacketPtr head;

  // Payload-bearing continuation frames of an aggregated packet, in sequence order.
  // Each fragment's own view locates its payload; its header bytes are dead weight.
  std::vector<PacketPtr> frags;

  // True when the TCP checksum is known-good without software verification (NIC rx
  // checksum offload, or an aggregate assembled from offload-verified fragments).
  bool csum_verified = false;

  // Aggregation metadata: one entry per constituent network packet, including the
  // head. Empty for non-aggregated packets.
  std::vector<FragmentInfo> fragment_info;

  // The head frame's parse. After an in-place header rewrite it is stale until
  // ReparseHead.
  const TcpFrameView& view() const { return *head->view; }

  // Number of network TCP segments this host packet stands for.
  size_t SegmentCount() const { return fragment_info.empty() ? 1 : fragment_info.size(); }

  // Total TCP payload bytes across head + fragments.
  size_t PayloadSize() const;

  // Calls `fn` over each payload region in sequence order.
  void ForEachPayload(const std::function<void(std::span<const uint8_t>)>& fn) const;

  // Re-parses the head frame after an in-place rewrite; aborts if the head no longer
  // parses (that would be an aggregation-engine bug).
  void ReparseHead();

  // Builds an SkBuff around `frame`, reusing a recycled one. Returns nullptr when the
  // frame is not a TCP/IPv4 packet (the caller then routes it off the TCP path).
  static SkBuffPtr Wrap(PacketPtr frame);
};

}  // namespace tcprx

#endif  // SRC_BUFFER_SKBUFF_H_
