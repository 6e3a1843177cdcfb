#include "src/ip/ipv4_layer.h"

namespace tcprx {

const char* IpVerdictName(IpVerdict v) {
  switch (v) {
    case IpVerdict::kAccept:
      return "accept";
    case IpVerdict::kBadChecksum:
      return "bad-checksum";
    case IpVerdict::kTruncated:
      return "truncated";
    case IpVerdict::kNotLocal:
      return "not-local";
    case IpVerdict::kNotTcp:
      return "not-tcp";
  }
  return "?";
}

IpVerdict Ipv4Layer::Validate(const SkBuff& skb) const {
  const TcpFrameView& view = skb.view();
  // tcprx-check: allow(charge) -- Validate is pure protocol logic; NetworkStack
  // charges ip_rx_per_packet ("ip_rcv") right before calling ValidateAndCount.
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
  if (view.ip.protocol != kIpProtoTcp) {
    return IpVerdict::kNotTcp;
  }
  if (!local_.empty() && local_.find(view.ip.dst.value) == local_.end()) {
    return IpVerdict::kNotLocal;
  }
  return IpVerdict::kAccept;
}

IpVerdict Ipv4Layer::ValidateAndCount(const SkBuff& skb) {
  const IpVerdict v = Validate(skb);
  if (v == IpVerdict::kAccept) {
    ++stats_.accepted;
  } else {
    ++stats_.rejected;
  }
  return v;
}

}  // namespace tcprx
