#include "src/buffer/skbuff.h"

#include "src/util/logging.h"
#include "src/util/poison.h"

namespace tcprx {

namespace {

// More than the SkBuffs a host keeps in its aggregation tables and backlog queues at once.
constexpr size_t kMaxCachedSkBuffs = 256;

// A recycled SkBuff and the storage of its two vectors are poisoned while they wait.
void Poison(SkBuff* skb) {
  PoisonRecycled(skb->frags.data(), skb->frags.capacity() * sizeof(PacketPtr));
  PoisonRecycled(skb->fragment_info.data(), skb->fragment_info.capacity() * sizeof(FragmentInfo));
  PoisonRecycled(skb, sizeof(SkBuff));
}

void Unpoison(SkBuff* skb) {
  UnpoisonRecycled(skb, sizeof(SkBuff));
  UnpoisonRecycled(skb->frags.data(), skb->frags.capacity() * sizeof(PacketPtr));
  UnpoisonRecycled(skb->fragment_info.data(),
                   skb->fragment_info.capacity() * sizeof(FragmentInfo));
}

struct FreeList {
  FreeList() { skbs.reserve(kMaxCachedSkBuffs); }
  ~FreeList() {
    for (SkBuff* skb : skbs) {
      Unpoison(skb);
      delete skb;
    }
  }
  std::vector<SkBuff*> skbs;
};

// tcprx_bench runs its points on worker threads: each keeps its own list.
thread_local FreeList free_list;

}  // namespace

void SkBuffRecycler::operator()(SkBuff* skb) const {
  if (free_list.skbs.size() == kMaxCachedSkBuffs) {
    delete skb;
    return;
  }
  skb->fragment_info.clear();
  skb->csum_verified = false;
  skb->frags.clear();
  skb->head.reset();
  Poison(skb);
  free_list.skbs.push_back(skb);
}

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
  SkBuffPtr skb;
  if (free_list.skbs.empty()) {
    skb.reset(new SkBuff());
  } else {
    skb.reset(free_list.skbs.back());
    free_list.skbs.pop_back();
    Unpoison(skb.get());
  }
  skb->csum_verified = frame->nic_checksum_verified;
  skb->head = std::move(frame);
  return skb;
}

}  // namespace tcprx
