// Whole-frame composition and decomposition (Ethernet + IPv4 + TCP).
//
// ParseTcpFrame decodes a frame into a TcpFrameView the caller owns and reuses (the
// packet pool parses every frame into its recycled Packet's view), in one pass over
// each header: the IPv4 header checksum is summed from the same word loads that decode
// the IPv4 fields, and the common TCP option layout, the aligned timestamp block, is
// recognised by one compare (src/wire/ipv4.h, src/wire/tcp.h). Once per-byte work is
// gone, this per-packet header work is what a frame costs, as the paper finds for the
// receive path itself.
//
// WriteTcpFrame is the one transmit-side composer: it copies a per-flow header image
// (TcpFrameTemplate) and patches what changes per segment, the way the paper's
// Acknowledgment Offload copies a prebuilt header and patches the ack field and
// checksum, composing the headers directly in the frame's recycled buffer. An
// established segment (timestamps, nothing else in its options) is the whole image
// copied and a few fields stored; any other segment takes its option bytes from the
// caller. The TCP layer writes every segment from its connection's template, and the
// stack its resets from one built per reset; BuildTcpFrame is the spec-driven form for
// traffic generators, tests and benchmarks.
#ifndef SRC_WIRE_FRAME_H_
#define SRC_WIRE_FRAME_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "src/wire/ethernet.h"
#include "src/wire/flow.h"
#include "src/wire/ipv4.h"
#include "src/wire/tcp.h"

namespace tcprx {

// Fully parsed view of a TCP/IPv4 Ethernet frame. Offsets index into the original
// frame bytes so callers can rewrite fields in place; whoever rewrites a header field
// writes the view's copy too (Aggregator::RewriteAggregateHeader does), so the frame is
// parsed once.
struct TcpFrameView {
  EthernetHeader eth;
  Ipv4Header ip;
  TcpHeader tcp;
  size_t ip_offset = 0;       // start of the IP header within the frame
  size_t tcp_offset = 0;      // start of the TCP header within the frame
  size_t payload_offset = 0;  // start of the TCP payload within the frame
  size_t payload_size = 0;    // TCP payload bytes in this frame (from the IP total length)
  // The IPv4 header checksum held when the frame was parsed: the one check of the
  // header's bytes. The aggregator's eligibility rule and Ipv4Layer::Validate read it.
  bool ip_checksum_ok = false;

  // The frame's 4-tuple, the key every layer looks its flow up by.
  FlowKey flow() const { return FlowKey{ip.src, ip.dst, tcp.src_port, tcp.dst_port}; }
};

// Parses `frame` as an Ethernet/IPv4/TCP packet into `view`, writing each field once,
// and checks the IPv4 header checksum into `view.ip_checksum_ok` (a bad checksum still
// parses; the check counts as one ipv4_header_check once the frame holds a whole TCP
// datagram). Returns false when any layer is malformed, the ethertype is not IPv4, the
// protocol is not TCP, or the IP datagram runs past the frame; `view` is then partly
// written and must not be read. Trailing bytes beyond the IP total length (e.g.
// Ethernet padding) are ignored.
bool ParseTcpFrame(std::span<const uint8_t> frame, TcpFrameView& view);

// The same parse for tests and cold callers: nullopt where the above returns false.
inline std::optional<TcpFrameView> ParseTcpFrame(std::span<const uint8_t> frame) {
  std::optional<TcpFrameView> view(std::in_place);
  if (!ParseTcpFrame(frame, *view)) {
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
// The headers of an established segment: the Ethernet + IPv4 prefix and a TCP header
// whose one option is the aligned timestamp block (data offset 8 words).
inline constexpr size_t kTcpEstablishedHeaderSize =
    kTcpFrameHeaderOffset + kTcpMinHeaderSize + kTcpTimestampOptionSize;

// The header image of one TCP flow: the whole header of its established segments, with
// every byte that does not change from segment to segment in place.
struct TcpFrameTemplate {
  // The Ethernet + IPv4 prefix (IPv4 total length, identification and checksum zero),
  // the ports, data offset 8, and the aligned timestamp block with both values zero;
  // the fields each segment stores (seq, ack, flags, window, checksum, urgent pointer)
  // are zero.
  std::array<uint8_t, kTcpEstablishedHeaderSize> header{};
  // The one's-complement sum of the prefix's constant IPv4 words.
  uint32_t ip_partial_sum = 0;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
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

// A segment's TCP payload as the writer sees it: its length, and its bytes unless it
// is length-only. A length-only payload sets every length field of the frame as its
// bytes would and leaves the payload bytes themselves unspecified. It is for runs where
// nothing reads them: no tap records the frames, no link corrupts them and no checksum
// covers them.
class TcpPayload {
 public:
  TcpPayload() = default;
  // `bytes`, written into the frame. Implicit: a span of bytes is a written payload.
  TcpPayload(std::span<const uint8_t> bytes) : bytes_(bytes), size_(bytes.size()) {}
  static TcpPayload LengthOnly(size_t size) {
    TcpPayload payload;
    payload.size_ = size;
    payload.written_ = false;
    return payload;
  }

  size_t size() const { return size_; }
  bool written() const { return written_; }
  // The bytes to write; empty when length-only.
  std::span<const uint8_t> bytes() const { return bytes_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t size_ = 0;
  bool written_ = true;
};

// Where the writer takes a segment's TCP options from. Explicit bytes (any byte span;
// none by default) are copied and padded with END bytes to a 4-byte boundary, which
// sets the data offset: SYNs, ACKs carrying SACK blocks, segments to peers without
// timestamps, resets and BuildTcpFrame's specs. Established(ts) is the established
// shape, the options of the template's header image: data offset 8 and the timestamp
// block, carrying `ts`.
class TcpOptionSource {
 public:
  TcpOptionSource() = default;
  template <typename Bytes>
    requires std::is_convertible_v<const Bytes&, std::span<const uint8_t>>
  TcpOptionSource(const Bytes& bytes) : bytes_(bytes) {}
  static TcpOptionSource Established(TcpTimestampOption ts) {
    TcpOptionSource source;
    source.established_ = true;
    source.timestamp_ = ts;
    return source;
  }

  bool established() const { return established_; }
  // The explicit bytes; empty when established.
  std::span<const uint8_t> bytes() const { return bytes_; }
  TcpTimestampOption timestamp() const { return timestamp_; }

 private:
  std::span<const uint8_t> bytes_;
  TcpTimestampOption timestamp_;
  bool established_ = false;
};

// Writes one frame from `tmpl` into a recycled buffer (src/wire/frame_buffer.h),
// composing the headers in that buffer. It copies the header image, all of it for an
// established segment and the prefix and ports otherwise; patches the IPv4 total
// length and `ip_id` and finishes the IPv4 checksum from the template's partial sum;
// stores the TCP fields and the options `options` names; and, unless it is length-only,
// writes `payload`. Every byte up to the end of the TCP header is written either way.
// The TCP checksum is computed when `fill_tcp_checksum` is set, which a length-only
// payload does not allow, and left zero otherwise, modelling a sender whose NIC would
// fill it in.
std::vector<uint8_t> WriteTcpFrame(const TcpFrameTemplate& tmpl, uint16_t ip_id,
                                   const TcpSegmentFields& tcp, TcpOptionSource options,
                                   TcpPayload payload, bool fill_tcp_checksum);

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
// WriteTcpFrame (explicit options from `spec.tcp.raw_options`; the TCP checksum field
// of the spec is ignored).
std::vector<uint8_t> BuildTcpFrame(const TcpFrameSpec& spec);

}  // namespace tcprx

#endif  // SRC_WIRE_FRAME_H_
