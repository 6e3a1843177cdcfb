#include "src/sim/remote_node.h"

#include "src/core/template_ack.h"
#include "src/wire/frame.h"

namespace tcprx {

TcpConnection* RemoteNode::CreateConnection(const TcpConnectionConfig& config) {
  auto conn = std::make_unique<TcpConnection>(
      config, loop_, [this](TcpOutputItem item) { HandleOutput(std::move(item)); });
  TcpConnection* raw = conn.get();
  demux_[raw->IncomingFlowKey()] = raw;
  connections_.push_back(std::move(conn));
  return raw;
}

void RemoteNode::HandleOutput(TcpOutputItem item) {
  // Remotes have no ACK offload: every ACK of a run goes on the wire as its own frame.
  ExpandTemplateAck(std::move(item), transmit_);
}

void RemoteNode::OnWireFrame(std::vector<uint8_t> frame) {
  ++frames_received_;
  SkBuffPtr skb = SkBuff::Wrap(pool_.AllocateMoved(std::move(frame)));
  if (skb == nullptr) {
    return;
  }
  const TcpFrameView& view = skb->view();
  const FlowKey key{view.ip.src, view.ip.dst, view.tcp.src_port, view.tcp.dst_port};
  auto it = demux_.find(key);
  if (it == demux_.end()) {
    return;
  }
  it->second->OnHostPacket(*skb);
}

}  // namespace tcprx
