#include "src/buffer/skbuff.h"

#include "src/util/logging.h"

namespace tcprx {

size_t SkBuff::PayloadSize() const {
  size_t total = view().payload_size;
  for (const PacketPtr& frag : frags) {
    total += frag->view->payload_size;
  }
  return total;
}

void SkBuff::ForEachPayload(const std::function<void(std::span<const uint8_t>)>& fn) const {
  if (view().payload_size > 0) {
    fn(head->Payload());
  }
  for (const PacketPtr& frag : frags) {
    fn(frag->Payload());
  }
}

void SkBuff::ReparseHead() {
  head->Parse(/*allow_logical_length=*/true);
  TCPRX_CHECK_MSG(head->view.has_value(), "SkBuff head frame unparseable after rewrite");
  // The IP total length of an aggregated head describes the whole host packet, but the
  // head frame physically holds only its own payload; clamp the view's payload size to
  // the head frame. Fragment payloads are tracked in `frags`.
  TcpFrameView& view = *head->view;
  const size_t in_head = head->Bytes().size() - view.payload_offset;
  if (view.payload_size > in_head) {
    view.payload_size = in_head;
  }
}

SkBuffPtr SkBuff::Wrap(PacketPtr frame) {
  if (!frame->view.has_value()) {
    return nullptr;
  }
  auto skb = std::make_unique<SkBuff>();
  skb->csum_verified = frame->nic_checksum_verified;
  skb->head = std::move(frame);
  return skb;
}

}  // namespace tcprx
