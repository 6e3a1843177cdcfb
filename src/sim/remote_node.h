// Remote peer machine (traffic generator / sink).
//
// Models the client machines of the paper's testbed: one per NIC, each connected
// point-to-point to the server. Remotes run the same TcpConnection protocol code as
// the host under test but charge no cycles and have no rings — client CPU is never
// the bottleneck in the paper's experiments, the server is.

#ifndef SRC_SIM_REMOTE_NODE_H_
#define SRC_SIM_REMOTE_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/tcp/tcp_connection.h"
#include "src/util/flat_map.h"
#include "src/util/event_loop.h"

namespace tcprx {

class RemoteNode : private TcpConnection::Owner {
 public:
  using TransmitFn = std::function<void(std::vector<uint8_t>&&)>;

  RemoteNode(EventLoop& loop, TransmitFn transmit)
      : loop_(loop), transmit_(std::move(transmit)) {}

  // Creates a connection owned by this node. Output frames (including expanded ACK
  // runs) go straight to the transmit function.
  TcpConnection* CreateConnection(const TcpConnectionConfig& config);

  // A frame arrived from the wire.
  void OnWireFrame(std::vector<uint8_t>&& frame);

  const std::vector<std::unique_ptr<TcpConnection>>& connections() const {
    return connections_;
  }

  uint64_t frames_received() const { return frames_received_; }

 private:
  // Remotes have no ACK offload: every ACK of a run goes on the wire as its own frame.
  void Output(TcpConnection& conn, TcpOutputItem&& item) override;

  EventLoop& loop_;
  TransmitFn transmit_;
  PacketPool pool_;
  FlatMap<FlowKey, TcpConnection*, FlowKeyHash> demux_;
  std::vector<std::unique_ptr<TcpConnection>> connections_;
  uint64_t frames_received_ = 0;
};

}  // namespace tcprx

#endif  // SRC_SIM_REMOTE_NODE_H_
