#include "src/buffer/skbuff.h"

#include "src/util/logging.h"

namespace tcprx {

size_t SkBuff::PayloadSize() const {
  size_t total = view.payload_size;
  for (const auto& frag : frags) {
    total += frag.payload_size;
  }
  return total;
}

void SkBuff::ForEachPayload(const std::function<void(std::span<const uint8_t>)>& fn) const {
  if (view.payload_size > 0) {
    fn(head->Bytes().subspan(view.payload_offset, view.payload_size));
  }
  for (const auto& frag : frags) {
    fn(frag.frame->Bytes().subspan(frag.payload_offset, frag.payload_size));
  }
}

void SkBuff::ReparseHead() {
  auto parsed = ParseTcpFrame(head->Bytes(), /*allow_logical_length=*/true);
  TCPRX_CHECK_MSG(parsed.has_value(), "SkBuff head frame unparseable after rewrite");
  // The IP total length of an aggregated head describes the whole host packet, but the
  // head frame physically holds only its own payload; clamp the view's payload size to
  // the head frame. Fragment payloads are tracked in `frags`.
  view = std::move(*parsed);
  const size_t in_head = head->Bytes().size() - view.payload_offset;
  if (view.payload_size > in_head) {
    view.payload_size = in_head;
  }
}

SkBuffPtr SkBuff::Wrap(PacketPtr frame) {
  auto parsed = ParseTcpFrame(frame->Bytes());
  if (!parsed.has_value()) {
    return nullptr;
  }
  auto skb = std::make_unique<SkBuff>();
  skb->csum_verified = frame->nic_checksum_verified;
  skb->head = std::move(frame);
  skb->view = std::move(*parsed);
  return skb;
}

}  // namespace tcprx
