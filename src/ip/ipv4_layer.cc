#include "src/ip/ipv4_layer.h"

namespace tcprx {

IpVerdict Ipv4Layer::Validate(const SkBuff& skb) const {
  const TcpFrameView& view = skb.view();
  // tcprx-check: allow(charge) -- Validate is pure protocol logic; NetworkStack
  // charges ip_rx_per_packet ("ip_rcv") right before calling Validate.
  if (!VerifyIpv4Checksum(skb.head->Bytes().subspan(view.ip_offset, view.ip.HeaderSize()))) {
    return IpVerdict::kBadChecksum;
  }
  // For an aggregated packet the IP total length spans the fragment chain; the
  // physical head frame holds only the head payload, so compare against the logical
  // size the SkBuff reconstructs.
  const size_t logical_payload = skb.PayloadSize();
  const size_t expected =
      view.ip.HeaderSize() + view.tcp.HeaderSize() + logical_payload;
  if (view.ip.total_length != expected) {
    return IpVerdict::kTruncated;
  }
  if (!local_.empty() && local_.Find(view.ip.dst.value) == nullptr) {
    return IpVerdict::kNotLocal;
  }
  return IpVerdict::kAccept;
}

}  // namespace tcprx
