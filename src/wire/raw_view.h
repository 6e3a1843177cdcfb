// Zero-copy raw wire fields: opaque big-endian field types and the bounds-checked
// flow-tuple peek used by NIC-level steering.
//
// Every received Packet already carries its ParseTcpFrame view, so steering could read
// the tuple from there. It does not, for RSS semantics: hardware hashes six fields at
// fixed offsets and steers frames the full parse rejects (a corrupted TCP data offset,
// say) by their tuple, where a view-based lookup would send them to queue 0.
// PeekFlowKey reads just those fields, the way RSS hardware does.
//
// Byte-order discipline (enforced by tools/tcprx_check, rule `byteorder`): the
// `be16`/`be32` wire-field types are opaque everywhere except this header — their
// `raw` bytes may only be dereferenced here, through WireLoad. Everything outside
// gets host-order integers and can never accidentally interpret a wire field without
// a byte swap.

#ifndef SRC_WIRE_RAW_VIEW_H_
#define SRC_WIRE_RAW_VIEW_H_

#include <cstdint>
#include <optional>
#include <span>

#include "src/wire/ethernet.h"
#include "src/wire/flow.h"
#include "src/wire/ipv4.h"
#include "src/wire/tcp.h"

namespace tcprx {

// A 16-bit big-endian (network order) field as it sits on the wire. Alignment 1 by
// construction, so overlays never require the frame buffer to be aligned.
struct be16 {
  uint8_t raw[2];
};

// A 32-bit big-endian field as it sits on the wire.
struct be32 {
  uint8_t raw[4];
};

static_assert(sizeof(be16) == 2 && alignof(be16) == 1);
static_assert(sizeof(be32) == 4 && alignof(be32) == 1);

// The only sanctioned readers of raw wire-field bytes.
// tcprx-check: allow(byteorder) -- these ARE the byte-order helpers.
inline uint16_t WireLoad(const be16& f) {
  return static_cast<uint16_t>((static_cast<uint16_t>(f.raw[0]) << 8) | f.raw[1]);
}
inline uint32_t WireLoad(const be32& f) {
  return (static_cast<uint32_t>(f.raw[0]) << 24) | (static_cast<uint32_t>(f.raw[1]) << 16) |
         (static_cast<uint32_t>(f.raw[2]) << 8) | static_cast<uint32_t>(f.raw[3]);
}

// Fixed 20-byte IPv4 header prefix, exactly as laid out on the wire. All members have
// alignment 1 and the struct has no padding, so overlaying it on a frame pointer is
// well-defined layout-wise.
struct RawIpv4Fields {
  uint8_t version_ihl;
  uint8_t dscp_ecn;
  be16 total_length;
  be16 identification;
  be16 flags_fragment;
  uint8_t ttl;
  uint8_t protocol;
  be16 header_checksum;
  be32 src_ip;
  be32 dst_ip;
};
static_assert(sizeof(RawIpv4Fields) == kIpv4MinHeaderSize);

// Leading TCP header fields needed for steering.
struct RawTcpFields {
  be16 src_port;
  be16 dst_port;
  be32 seq;
  be32 ack;
  uint8_t data_offset_reserved;
  uint8_t flags;
};
static_assert(sizeof(RawTcpFields) == 14);

// Result of PeekFlowKey: the steering tuple plus the one flag bit software steering
// cares about (SYN touches the shared listener table).
struct FlowPeek {
  FlowKey key;
  bool syn = false;
};

// Extracts the RSS/steering 4-tuple from an Ethernet/IPv4/TCP frame without parsing
// options or allocating. Returns nullopt for non-IPv4 ethertypes, non-TCP protocols,
// fragments past the first, or frames too short to hold the fixed headers — the cases
// real RSS hardware funnels to queue 0.
inline std::optional<FlowPeek> PeekFlowKey(std::span<const uint8_t> frame) {
  if (frame.size() < kEthernetHeaderSize + kIpv4MinHeaderSize) {
    return std::nullopt;
  }
  const be16* ether_type =
      reinterpret_cast<const be16*>(frame.data() + kEthernetHeaderSize - 2);
  if (WireLoad(*ether_type) != kEtherTypeIpv4) {
    return std::nullopt;
  }
  const RawIpv4Fields* ip =
      reinterpret_cast<const RawIpv4Fields*>(frame.data() + kEthernetHeaderSize);
  if ((ip->version_ihl >> 4) != 4 || ip->protocol != kIpProtoTcp) {
    return std::nullopt;
  }
  const size_t ihl = static_cast<size_t>(ip->version_ihl & 0x0f) * 4;
  if (ihl < kIpv4MinHeaderSize ||
      frame.size() < kEthernetHeaderSize + ihl + sizeof(RawTcpFields)) {
    return std::nullopt;
  }
  // A non-first fragment has no TCP header; hashing its "ports" would mis-steer.
  if ((WireLoad(ip->flags_fragment) & 0x1fff) != 0) {
    return std::nullopt;
  }
  const RawTcpFields* tcp =
      reinterpret_cast<const RawTcpFields*>(frame.data() + kEthernetHeaderSize + ihl);
  FlowPeek peek;
  peek.key = FlowKey{Ipv4Address{WireLoad(ip->src_ip)}, Ipv4Address{WireLoad(ip->dst_ip)},
                     WireLoad(tcp->src_port), WireLoad(tcp->dst_port)};
  peek.syn = (tcp->flags & kTcpSyn) != 0;
  return peek;
}

}  // namespace tcprx

#endif  // SRC_WIRE_RAW_VIEW_H_
