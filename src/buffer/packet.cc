#include "src/buffer/packet.h"

#include "src/util/logging.h"

namespace tcprx {

void PacketReturner::operator()(Packet* p) const {
  if (p == nullptr) {
    return;
  }
  if (p->origin_pool_ != nullptr) {
    p->origin_pool_->Return(p);
  } else {
    delete p;
  }
}

PacketPool::~PacketPool() {
  for (Packet* p : free_list_) {
    delete p;
  }
  TCPRX_CHECK_MSG(stats_.live == 0, "packets leaked past pool destruction: " << stats_.live);
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

PacketPtr PacketPool::Allocate(std::span<const uint8_t> frame) {
  PacketPtr p = Take();
  p->data.assign(frame.begin(), frame.end());
  p->view = ParseTcpFrame(p->Bytes());
  return p;
}

PacketPtr PacketPool::AllocateMoved(std::vector<uint8_t>&& frame) {
  PacketPtr p = Take();
  p->data = std::move(frame);
  p->view = ParseTcpFrame(p->Bytes());
  return p;
}

void PacketPool::Return(Packet* p) {
  ++stats_.frees;
  TCPRX_CHECK(stats_.live > 0);
  --stats_.live;
  free_list_.push_back(p);
}

}  // namespace tcprx
