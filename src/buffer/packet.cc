#include "src/buffer/packet.h"

#include <string>
#include <utility>

#include "src/util/logging.h"
#include "src/wire/frame_buffer.h"

namespace tcprx {

void PacketReturner::operator()(Packet* p) const { p->origin_pool_->Return(p); }

PacketPool::~PacketPool() {
  for (Packet* p : free_list_) {
    delete p;
  }
  TCPRX_CHECK_MSG(stats_.live == 0,
                  "packets leaked past pool destruction: " + std::to_string(stats_.live));
}

PacketPtr PacketPool::Take() {
  Packet* p;
  if (!free_list_.empty()) {
    p = free_list_.back();
    free_list_.pop_back();
  } else {
    p = new Packet();
    p->origin_pool_ = this;
  }
  ++stats_.allocations;
  ++stats_.live;
  p->nic_checksum_verified = false;
  return PacketPtr(p);
}

PacketPtr PacketPool::AllocateMoved(std::vector<uint8_t>&& frame) {
  PacketPtr p = Take();
  // The packet keeps the frame's bytes; the buffer it held before goes back to be
  // written again.
  std::swap(p->data, frame);
  RecycleFrameBuffer(std::move(frame));
  p->Parse();
  return p;
}

void Packet::Parse() {
  if (!view.has_value()) {
    view.emplace();
  }
  if (!ParseTcpFrame(Bytes(), *view)) {
    view.reset();
  }
}

void PacketPool::Return(Packet* p) {
  ++stats_.frees;
  TCPRX_CHECK(stats_.live > 0);
  --stats_.live;
  free_list_.push_back(p);
}

}  // namespace tcprx
