// The bounds-checked flow-tuple peek used by NIC-level steering. This header holds
// only FlowPeek and PeekFlowKey.
//
// Every received Packet already carries its ParseTcpFrame view, so steering could read
// the tuple from there. It does not, for RSS semantics: hardware hashes six fields at
// fixed offsets and steers frames the full parse rejects (a corrupted TCP data offset,
// say) by their tuple, where a view-based lookup would send them to queue 0.
// PeekFlowKey reads just those fields, the way RSS hardware does, each with the
// byte-order helpers every header reader uses (src/util/byte_order.h).

#ifndef SRC_WIRE_RAW_VIEW_H_
#define SRC_WIRE_RAW_VIEW_H_

#include <cstdint>
#include <optional>
#include <span>

#include "src/util/byte_order.h"
#include "src/wire/ethernet.h"
#include "src/wire/flow.h"
#include "src/wire/ipv4.h"
#include "src/wire/tcp.h"

namespace tcprx {

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
  if (frame.size() < kEthernetHeaderSize + kIpv4MinHeaderSize ||
      LoadBe16(frame.data() + kEthernetHeaderSize - 2) != kEtherTypeIpv4) {
    return std::nullopt;
  }
  const uint8_t* ip = frame.data() + kEthernetHeaderSize;
  if ((ip[0] >> 4) != 4 || ip[9] != kIpProtoTcp) {
    return std::nullopt;
  }
  const size_t ihl = static_cast<size_t>(ip[0] & 0x0f) * 4;
  // The TCP fields read below end with the flags byte, 14 bytes into the header.
  constexpr size_t kTcpPeekSize = 14;
  if (ihl < kIpv4MinHeaderSize || frame.size() < kEthernetHeaderSize + ihl + kTcpPeekSize) {
    return std::nullopt;
  }
  // A non-first fragment has no TCP header; hashing its "ports" would mis-steer.
  if ((LoadBe16(ip + 6) & 0x1fff) != 0) {
    return std::nullopt;
  }
  const uint8_t* tcp = ip + ihl;
  FlowPeek peek;
  peek.key = FlowKey{Ipv4Address{LoadBe32(ip + 12)}, Ipv4Address{LoadBe32(ip + 16)},
                     LoadBe16(tcp), LoadBe16(tcp + 2)};
  peek.syn = (tcp[13] & kTcpSyn) != 0;
  return peek;
}

}  // namespace tcprx

#endif  // SRC_WIRE_RAW_VIEW_H_
