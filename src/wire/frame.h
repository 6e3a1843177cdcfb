// Whole-frame composition and decomposition (Ethernet + IPv4 + TCP).
//
// ParseTcpFrame decodes a frame into a TcpFrameView the caller owns and reuses (the
// packet pool parses every frame into its recycled Packet's view). WriteTcpFrame is
// the one transmit-side composer: it copies a per-flow TcpFrameTemplate and patches
// what changes per segment, the way the paper's Acknowledgment Offload copies a
// prebuilt header and patches the ack field and checksum. The TCP layer writes every
// segment from its connection's template, and the stack its resets from one built
// per reset; BuildTcpFrame is the spec-driven form for traffic generators, tests and
// benchmarks.

#ifndef SRC_WIRE_FRAME_H_
#define SRC_WIRE_FRAME_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/wire/ethernet.h"
#include "src/wire/ipv4.h"
#include "src/wire/tcp.h"

namespace tcprx {

// Fully parsed view of a TCP/IPv4 Ethernet frame. Offsets index into the original
// frame bytes so callers can rewrite fields in place.
struct TcpFrameView {
  EthernetHeader eth;
  Ipv4Header ip;
  TcpHeader tcp;
  size_t ip_offset = 0;       // start of the IP header within the frame
  size_t tcp_offset = 0;      // start of the TCP header within the frame
  size_t payload_offset = 0;  // start of the TCP payload within the frame
  size_t payload_size = 0;    // TCP payload bytes (from the IP total length)
};

// Parses `frame` as an Ethernet/IPv4/TCP packet into `view`, writing each field once.
// Returns false when any layer is malformed, the ethertype is not IPv4, or the protocol
// is not TCP; `view` is then partly written and must not be read. Trailing bytes
// beyond the IP total length (e.g. Ethernet padding) are ignored.
//
// With `allow_logical_length` the IP total length may exceed the physical frame: the
// head frame of an aggregated packet describes the whole fragment chain while holding
// only its own payload. payload_size then reflects the *logical* (IP-header) length.
bool ParseTcpFrame(std::span<const uint8_t> frame, TcpFrameView& view,
                   bool allow_logical_length = false);

// The same parse for tests and cold callers: nullopt where the above returns false.
inline std::optional<TcpFrameView> ParseTcpFrame(std::span<const uint8_t> frame,
                                                 bool allow_logical_length = false) {
  std::optional<TcpFrameView> view(std::in_place);
  if (!ParseTcpFrame(frame, *view, allow_logical_length)) {
    view.reset();
  }
  return view;
}

// The receive-side TCP checksum check of a parsed frame: true when the checksum field
// is zero, modelling a sender whose NIC fills it on the wire (tx offload; the simulation
// does not materialize it and trusts the frame), or when the segment the IP total
// length delimits checks out against its pseudo-header.
bool VerifyFrameTcpChecksum(std::span<const uint8_t> frame, const TcpFrameView& view);

// The TCP header starts at the same offset in every frame the writer builds.
inline constexpr size_t kTcpFrameHeaderOffset = kEthernetHeaderSize + kIpv4MinHeaderSize;

// What every frame of one TCP flow shares: the Ethernet + IPv4 prefix with its IPv4
// total length, identification and checksum left zero, the one's-complement sum of the
// prefix's constant IPv4 words, and the flow's addresses and ports.
struct TcpFrameTemplate {
  std::array<uint8_t, kTcpFrameHeaderOffset> prefix{};
  uint32_t ip_partial_sum = 0;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
};

// The template of the flow from (src_mac, src_ip, src_port) to (dst_mac, dst_ip,
// dst_port): IPv4 with no options, don't-fragment set, the given TTL.
TcpFrameTemplate MakeTcpFrameTemplate(const MacAddress& src_mac, const MacAddress& dst_mac,
                                      Ipv4Address src_ip, Ipv4Address dst_ip,
                                      uint16_t src_port, uint16_t dst_port,
                                      uint8_t ttl = 64);

// The TCP header fields that change from segment to segment.
struct TcpSegmentFields {
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t flags = 0;
  uint16_t window = 0;
  uint16_t urgent_pointer = 0;
};

// Writes one frame from `tmpl` into a recycled buffer (src/wire/frame_buffer.h): copies
// the prefix, patches the IPv4 total length and `ip_id`, finishes the IPv4 checksum from
// the template's partial sum, stores the TCP fields and `options` (padded with END bytes
// to a 4-byte boundary, which sets the data offset) and appends `payload`. The TCP
// checksum is computed when `fill_tcp_checksum` is set and left zero otherwise,
// modelling a sender whose NIC would fill it in.
std::vector<uint8_t> WriteTcpFrame(const TcpFrameTemplate& tmpl, uint16_t ip_id,
                                   const TcpSegmentFields& tcp,
                                   std::span<const uint8_t> options,
                                   std::span<const uint8_t> payload, bool fill_tcp_checksum);

// Everything needed to compose one TCP/IPv4 frame.
struct TcpFrameSpec {
  MacAddress src_mac;
  MacAddress dst_mac;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  TcpHeader tcp;  // data_offset_words is derived from raw_options; checksum is computed
  std::span<const uint8_t> payload;
  uint16_t ip_id = 0;
  uint8_t ttl = 64;
  // When false the TCP checksum field is written as zero, modelling a sender whose NIC
  // would fill it in; receivers with checksum offload "accept" such frames in the sim.
  bool fill_tcp_checksum = true;
};

// Builds the full frame bytes: the template `spec` describes, written once with
// WriteTcpFrame (options from `spec.tcp.raw_options`; the TCP checksum field of the
// spec is ignored).
std::vector<uint8_t> BuildTcpFrame(const TcpFrameSpec& spec);

}  // namespace tcprx

#endif  // SRC_WIRE_FRAME_H_
