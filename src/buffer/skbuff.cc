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

// This thread's recycled SkBuffs. It is constant-initialized, so the per-packet Wrap and
// recycle read it with no thread-local initialization guard.
struct FreeList {
  SkBuff* skbs[kMaxCachedSkBuffs];
  size_t size;
};

// tcprx_bench runs its points on worker threads: each keeps its own list, and an SkBuff
// is recycled on the thread that made it.
thread_local constinit FreeList free_list{};

// Deletes the thread's cached SkBuffs when the thread exits. Wrap touches it where it
// makes a new SkBuff, the only way the list comes to hold any.
struct FreeListReleaser {
  ~FreeListReleaser() {
    for (size_t i = 0; i < free_list.size; ++i) {
      Unpoison(free_list.skbs[i]);
      delete free_list.skbs[i];
    }
    free_list.size = 0;
  }
};
thread_local FreeListReleaser releaser;

}  // namespace

void SkBuffRecycler::operator()(SkBuff* skb) const {
  if (free_list.size == kMaxCachedSkBuffs) {
    delete skb;
    return;
  }
  skb->fragment_info.clear();
  skb->csum_verified = false;
  skb->frags.clear();
  skb->head.reset();
  Poison(skb);
  free_list.skbs[free_list.size++] = skb;
}

size_t SkBuff::PayloadSize() const {
  size_t total = view().payload_size;
  for (const PacketPtr& frag : frags) {
    total += frag->view->payload_size;
  }
  return total;
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
  if (free_list.size == 0) {
    [[maybe_unused]] const FreeListReleaser& at_thread_exit = releaser;
    skb.reset(new SkBuff());
  } else {
    skb.reset(free_list.skbs[--free_list.size]);
    Unpoison(skb.get());
  }
  const TcpFrameView& view = *frame->view;
  skb->fragment_info.push_back(FragmentInfo{view.tcp.seq, view.tcp.ack, view.tcp.window,
                                            static_cast<uint32_t>(view.payload_size)});
  skb->csum_verified = frame->nic_checksum_verified;
  skb->head = std::move(frame);
  return skb;
}

}  // namespace tcprx
