#include "src/wire/frame.h"

#include <algorithm>

#include "src/util/byte_order.h"
#include "src/util/logging.h"

namespace tcprx {

std::optional<TcpFrameView> ParseTcpFrame(std::span<const uint8_t> frame,
                                          bool allow_logical_length) {
  auto eth = ParseEthernet(frame);
  if (!eth || eth->ether_type != kEtherTypeIpv4) {
    return std::nullopt;
  }
  const size_t ip_offset = kEthernetHeaderSize;
  auto ip = ParseIpv4(frame.subspan(ip_offset));
  if (!ip || ip->protocol != kIpProtoTcp) {
    return std::nullopt;
  }
  if (!allow_logical_length && ip_offset + ip->total_length > frame.size()) {
    return std::nullopt;  // truncated datagram
  }
  const size_t tcp_offset = ip_offset + ip->HeaderSize();
  const size_t tcp_segment_size = ip->total_length - ip->HeaderSize();
  const size_t physically_present =
      std::min<size_t>(tcp_segment_size, frame.size() - tcp_offset);
  auto tcp = ParseTcp(frame.subspan(tcp_offset, physically_present));
  if (!tcp) {
    return std::nullopt;
  }
  TcpFrameView view;
  view.eth = *eth;
  view.ip = *ip;
  view.tcp = std::move(*tcp);
  view.ip_offset = ip_offset;
  view.tcp_offset = tcp_offset;
  view.payload_offset = tcp_offset + view.tcp.HeaderSize();
  view.payload_size = tcp_segment_size - view.tcp.HeaderSize();
  return view;
}

std::vector<uint8_t> BuildTcpFrame(const TcpFrameSpec& spec) {
  TcpHeader tcp = spec.tcp;
  const size_t options_padded = (tcp.raw_options.size() + 3) & ~size_t{3};
  tcp.data_offset_words = static_cast<uint8_t>((kTcpMinHeaderSize + options_padded) / 4);
  const size_t tcp_size = tcp.HeaderSize();
  const size_t ip_size = kIpv4MinHeaderSize;
  const size_t total = kEthernetHeaderSize + ip_size + tcp_size + spec.payload.size();
  TCPRX_CHECK_MSG(ip_size + tcp_size + spec.payload.size() <= 0xffff,
                  "IP datagram exceeds 64KiB");

  const size_t tcp_offset = kEthernetHeaderSize + ip_size;
  // Zero only the headers; the payload is appended, not written over zeros.
  std::vector<uint8_t> frame;
  frame.reserve(total);
  frame.resize(tcp_offset + tcp_size);

  SerializeEthernet(EthernetHeader{spec.dst_mac, spec.src_mac, kEtherTypeIpv4},
                    std::span<uint8_t>(frame));

  Ipv4Header ip;
  ip.total_length = static_cast<uint16_t>(ip_size + tcp_size + spec.payload.size());
  ip.identification = spec.ip_id;
  ip.ttl = spec.ttl;
  ip.protocol = kIpProtoTcp;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  SerializeIpv4(ip, std::span<uint8_t>(frame).subspan(kEthernetHeaderSize));

  tcp.checksum = 0;
  SerializeTcp(tcp, std::span<uint8_t>(frame).subspan(tcp_offset));
  frame.insert(frame.end(), spec.payload.begin(), spec.payload.end());

  if (spec.fill_tcp_checksum) {
    const std::span<const uint8_t> header_bytes =
        std::span<const uint8_t>(frame).subspan(tcp_offset, tcp_size);
    const std::span<const uint8_t> fragments[] = {
        std::span<const uint8_t>(frame).subspan(tcp_offset + tcp_size)};
    const uint16_t csum = TcpChecksum(spec.src_ip, spec.dst_ip, header_bytes, fragments);
    StoreBe16(frame.data() + tcp_offset + 16, csum);
  }
  return frame;
}

}  // namespace tcprx
