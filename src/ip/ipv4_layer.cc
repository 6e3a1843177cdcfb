#include "src/ip/ipv4_layer.h"

namespace tcprx {

IpVerdict Ipv4Layer::Validate(const SkBuff& skb) const {
  const TcpFrameView& view = skb.view();
  // The parse checked the header; NetworkStack charges ip_rcv for it before calling
  // Validate. An aggregate's head keeps its verdict: the aggregator rewrote the header
  // with a fresh checksum.
  if (!view.ip_checksum_ok) {
    return IpVerdict::kBadChecksum;
  }
  if (!local_.empty() && local_.Find(view.ip.dst.value) == nullptr) {
    return IpVerdict::kNotLocal;
  }
  return IpVerdict::kAccept;
}

}  // namespace tcprx
