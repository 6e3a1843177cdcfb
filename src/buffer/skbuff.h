// SkBuff: the host network stack's packet metadata structure (Linux sk_buff analogue).
//
// An SkBuff wraps one "host packet": the frames of its network segments, in order. For an
// aggregated packet (section 3.2 of the paper) the first frame carries the rewritten
// TCP/IP header and the rest chain the payload of the subsequent network packets without
// copying. The per-segment metadata the modified TCP layer needs (ack numbers for
// congestion control, segment boundaries for ACK generation) rides in `fragment_info`,
// exactly as the paper stores it "in the packet metadata structure (sk_buff)". A lone
// packet is an aggregate of one, so every reader walks the lists. Each frame has one
// owner at a time: TCP moves an out-of-order segment's frame into its reassembly queue.
//
// SkBuffs are recycled: SkBuffPtr's deleter clears one and keeps it, with the capacity
// of its vectors, for the next Wrap on the same thread, the way Linux keeps sk_buff heads
// in a slab cache.

#ifndef SRC_BUFFER_SKBUFF_H_
#define SRC_BUFFER_SKBUFF_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/buffer/packet.h"
#include "src/wire/frame.h"

namespace tcprx {

// Per-network-segment record kept on every SkBuff.
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
  // The frames of the network segments: entry i is fragment_info[i]'s. The first, the
  // head, carries this host packet's headers (for an aggregate, as the aggregation
  // engine rewrote them); the others' own views locate their payload.
  std::vector<PacketPtr> frames;

  // One entry per network segment, in sequence order: entry 0 is the head's, recorded
  // by Wrap before any header rewrite.
  std::vector<FragmentInfo> fragment_info;

  Packet& head() const { return *frames.front(); }

  // The head frame's parse. For an aggregate it describes the rewritten header, whose
  // IP total length spans every fragment, while its payload_size stays the head frame's
  // own.
  const TcpFrameView& view() const { return *head().view; }

  // Number of network TCP segments this host packet stands for.
  size_t SegmentCount() const { return fragment_info.size(); }

  // Total TCP payload bytes across all frames.
  size_t PayloadSize() const;

  // Builds an SkBuff around `frame`, reusing a recycled one, and lists the frame as its
  // one segment. Returns nullptr when the frame is not a TCP/IPv4 packet (the caller
  // then routes it off the TCP path).
  static SkBuffPtr Wrap(PacketPtr frame);
};

}  // namespace tcprx

#endif  // SRC_BUFFER_SKBUFF_H_
