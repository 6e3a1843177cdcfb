#include "src/sim/remote_node.h"

#include "src/core/template_ack.h"
#include "src/wire/frame.h"

namespace tcprx {

TcpConnection* RemoteNode::CreateConnection(const TcpConnectionConfig& config) {
  auto conn = std::make_unique<TcpConnection>(config, loop_, static_cast<Owner&>(*this));
  TcpConnection* raw = conn.get();
  demux_.InsertOrAssign(raw->IncomingFlowKey(), raw);
  connections_.push_back(std::move(conn));
  return raw;
}

void RemoteNode::Output(TcpConnection& /*conn*/, TcpOutputItem&& item) {
  ExpandTemplateAck(std::move(item), transmit_);
}

void RemoteNode::OnWireFrame(std::vector<uint8_t>&& frame) {
  ++frames_received_;
  SkBuffPtr skb = SkBuff::Wrap(pool_.AllocateMoved(std::move(frame)));
  if (skb == nullptr) {
    return;
  }
  TcpConnection* const* conn = demux_.Find(skb->view().flow());
  if (conn == nullptr) {
    return;
  }
  (*conn)->OnHostPacket(*skb);
}

}  // namespace tcprx
