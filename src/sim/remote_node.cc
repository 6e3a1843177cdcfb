#include "src/sim/remote_node.h"

#include "src/core/template_ack.h"
#include "src/wire/frame.h"

namespace tcprx {

TcpConnection* RemoteNode::CreateConnection(const TcpConnectionConfig& config) {
  auto conn = std::make_unique<TcpConnection>(
      config, loop_, [this](TcpOutputItem item) { HandleOutput(std::move(item)); });
  TcpConnection* raw = conn.get();
  demux_.InsertOrAssign(raw->IncomingFlowKey(), raw);
  connections_.push_back(std::move(conn));
  return raw;
}

void RemoteNode::HandleOutput(TcpOutputItem item) {
  // Remotes have no ACK offload: every ACK of a run goes on the wire as its own frame.
  ExpandTemplateAck(std::move(item), transmit_);
}

void RemoteNode::OnWireFrame(std::vector<uint8_t> frame) {
  ++frames_received_;
  PacketPtr packet = pool_.AllocateMoved(std::move(frame));
  if (!packet->view.has_value()) {
    return;
  }
  const TcpFrameView& view = *packet->view;
  const FlowKey key{view.ip.src, view.ip.dst, view.tcp.src_port, view.tcp.dst_port};
  TcpConnection* const* conn = demux_.Find(key);
  if (conn == nullptr) {
    return;
  }
  // On the stack: the connection reads the packet and keeps nothing of the wrapper.
  SkBuff skb;
  skb.csum_verified = packet->nic_checksum_verified;
  skb.head = std::move(packet);
  (*conn)->OnHostPacket(skb);
}

}  // namespace tcprx
