#include "src/wire/frame.h"

#include <algorithm>

#include "src/util/byte_order.h"
#include "src/util/harness_counters.h"
#include "src/util/logging.h"
#include "src/wire/frame_buffer.h"

namespace tcprx {

bool ParseTcpFrame(std::span<const uint8_t> frame, TcpFrameView& view,
                   bool allow_logical_length) {
  if (!ParseEthernet(frame, view.eth) || view.eth.ether_type != kEtherTypeIpv4) {
    return false;
  }
  view.ip_offset = kEthernetHeaderSize;
  const Ipv4Header& ip = view.ip;
  if (!ParseIpv4(frame.subspan(view.ip_offset), view.ip) || ip.protocol != kIpProtoTcp) {
    return false;
  }
  if (!allow_logical_length && view.ip_offset + ip.total_length > frame.size()) {
    return false;  // truncated datagram
  }
  view.tcp_offset = view.ip_offset + ip.HeaderSize();
  const size_t tcp_segment_size = ip.total_length - ip.HeaderSize();
  const size_t physically_present =
      std::min<size_t>(tcp_segment_size, frame.size() - view.tcp_offset);
  if (!ParseTcp(frame.subspan(view.tcp_offset, physically_present), view.tcp)) {
    return false;
  }
  view.payload_offset = view.tcp_offset + view.tcp.HeaderSize();
  view.payload_size = tcp_segment_size - view.tcp.HeaderSize();
  return true;
}

bool VerifyFrameTcpChecksum(std::span<const uint8_t> frame, const TcpFrameView& view) {
  if (LoadBe16(frame.data() + view.tcp_offset + 16) == 0) {
    return true;
  }
  const size_t seg_len = view.ip.total_length - view.ip.HeaderSize();
  return VerifyTcpChecksum(view.ip.src, view.ip.dst, frame.subspan(view.tcp_offset, seg_len));
}

TcpFrameTemplate MakeTcpFrameTemplate(const MacAddress& src_mac, const MacAddress& dst_mac,
                                      Ipv4Address src_ip, Ipv4Address dst_ip,
                                      uint16_t src_port, uint16_t dst_port, uint8_t ttl) {
  TcpFrameTemplate t;
  t.src_ip = src_ip;
  t.dst_ip = dst_ip;
  t.src_port = src_port;
  t.dst_port = dst_port;
  SerializeEthernet(EthernetHeader{dst_mac, src_mac, kEtherTypeIpv4}, t.prefix);
  Ipv4Header ip;
  ip.ttl = ttl;
  ip.protocol = kIpProtoTcp;
  ip.src = src_ip;
  ip.dst = dst_ip;
  const std::span<uint8_t> ip_bytes = std::span<uint8_t>(t.prefix).subspan(kEthernetHeaderSize);
  SerializeIpv4(ip, ip_bytes);
  StoreBe16(ip_bytes.data() + 10, 0);
  for (size_t i = 0; i < kIpv4MinHeaderSize; i += 2) {
    t.ip_partial_sum += LoadBe16(ip_bytes.data() + i);
  }
  return t;
}

std::vector<uint8_t> WriteTcpFrame(const TcpFrameTemplate& tmpl, uint16_t ip_id,
                                   const TcpSegmentFields& tcp,
                                   std::span<const uint8_t> options, TcpPayload payload,
                                   bool fill_tcp_checksum) {
  TCPRX_CHECK_MSG(options.size() <= kTcpMaxOptionBytes, "TCP options exceed 40 bytes");
  TCPRX_CHECK_MSG(payload.written() || !fill_tcp_checksum,
                  "a TCP checksum needs the payload bytes");
  const size_t tcp_size = kTcpMinHeaderSize + ((options.size() + 3) & ~size_t{3});
  const size_t ip_total = kIpv4MinHeaderSize + tcp_size + payload.size();
  TCPRX_CHECK_MSG(ip_total <= 0xffff, "IP datagram exceeds 64KiB");

  // The headers are composed on the stack and land in the frame with one copy; every
  // byte up to the end of the TCP header is written before it is copied.
  uint8_t head[kTcpFrameHeaderOffset + kTcpMinHeaderSize + kTcpMaxOptionBytes];
  std::copy(tmpl.prefix.begin(), tmpl.prefix.end(), head);
  uint8_t* ip = head + kEthernetHeaderSize;
  StoreBe16(ip + 2, static_cast<uint16_t>(ip_total));
  StoreBe16(ip + 4, ip_id);
  uint32_t sum = tmpl.ip_partial_sum + static_cast<uint32_t>(ip_total) + ip_id;
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  StoreBe16(ip + 10, static_cast<uint16_t>(~sum));

  uint8_t* th = head + kTcpFrameHeaderOffset;
  StoreBe16(th, tmpl.src_port);
  StoreBe16(th + 2, tmpl.dst_port);
  StoreBe32(th + 4, tcp.seq);
  StoreBe32(th + 8, tcp.ack);
  th[12] = static_cast<uint8_t>((tcp_size / 4) << 4);
  th[13] = tcp.flags;
  StoreBe16(th + 14, tcp.window);
  StoreBe16(th + 16, 0);
  StoreBe16(th + 18, tcp.urgent_pointer);
  uint8_t* options_end = std::copy(options.begin(), options.end(), th + kTcpMinHeaderSize);
  std::fill(options_end, th + tcp_size, uint8_t{kTcpOptEnd});

  const size_t header_size = kTcpFrameHeaderOffset + tcp_size;
  std::vector<uint8_t> frame = TakeFrameBuffer(header_size + payload.size());
  uint8_t* payload_start = std::copy(head, th + tcp_size, frame.data());
  if (payload.written()) {
    std::copy(payload.bytes().begin(), payload.bytes().end(), payload_start);
    thread_harness_counters.payload_bytes_written += payload.size();
  }

  if (fill_tcp_checksum) {
    const std::span<const uint8_t> bytes(frame);
    const std::span<const uint8_t> fragments[] = {bytes.subspan(header_size)};
    const uint16_t csum = TcpChecksum(tmpl.src_ip, tmpl.dst_ip,
                                      bytes.subspan(kTcpFrameHeaderOffset, tcp_size), fragments);
    StoreBe16(frame.data() + kTcpFrameHeaderOffset + 16, csum);
  }
  return frame;
}

std::vector<uint8_t> BuildTcpFrame(const TcpFrameSpec& spec) {
  const TcpFrameTemplate tmpl =
      MakeTcpFrameTemplate(spec.src_mac, spec.dst_mac, spec.src_ip, spec.dst_ip,
                           spec.tcp.src_port, spec.tcp.dst_port, spec.ttl);
  const TcpSegmentFields fields{spec.tcp.seq, spec.tcp.ack, spec.tcp.flags, spec.tcp.window,
                                spec.tcp.urgent_pointer};
  return WriteTcpFrame(tmpl, spec.ip_id, fields, spec.tcp.raw_options, spec.payload,
                       spec.fill_tcp_checksum);
}

}  // namespace tcprx
