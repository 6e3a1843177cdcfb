// Acknowledgment Offload (the paper's second contribution, section 4).
//
// When the TCP layer owes several consecutive ACKs at once — which Receive Aggregation
// makes the common case, since one aggregated packet can require ceil(k/2) of them —
// it hands down a single *template* ACK: a TcpOutputItem whose frame is the first ACK
// of the run and whose `extra_acks` are the ack numbers of the rest. With offload on,
// the template traverses the transmit stack once and the driver (or a proxy for it,
// e.g. the physical driver in a Xen driver domain) re-generates the individual ACK
// packets: copy the template frame, rewrite the ack number, patch the TCP checksum
// incrementally, and transmit. Successive ACKs of a connection differ only in the ack
// number and checksum (section 4.2), so this reproduces exactly what the unoptimized
// stack would have put on the wire.
//
// ExpandTemplateAck is the one place frames are generated from an output item: the
// host stack uses it with offload on or off (only the cycles charged differ), and the
// zero-cost remote peers and the tests use it to put every ACK of a run on the wire.
// The item and each frame it stands for move by reference: the expander is a template
// on its emitter, so handing one output item to the wire builds no std::function.

#ifndef SRC_CORE_TEMPLATE_ACK_H_
#define SRC_CORE_TEMPLATE_ACK_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/tcp/tcp_connection.h"
#include "src/util/logging.h"
#include "src/wire/frame.h"
#include "src/wire/frame_buffer.h"

namespace tcprx {

// True when the item's frame is a pure ACK: flags exactly ACK and no payload.
bool IsPureAck(const TcpOutputItem& item);

// Rewrites the ack number of a single contiguous ACK frame in place, patching the TCP
// checksum incrementally.
void RewriteAckNumber(std::span<uint8_t> frame, size_t tcp_offset, uint32_t new_ack);

// Emits the frames an output item stands for, in ack order, each as a
// std::vector<uint8_t>&& to `emit`: first the item's own frame byte for byte, then one
// copy per `extra_acks` entry with the TCP ack number rewritten and the checksum
// patched incrementally (zero checksums — tx offload — stay zero). Copies are made in
// recycled frame buffers, and the last frame of a run is the item's own. Aborts if an
// item with extra acks is not a pure ACK.
template <typename Emit>
void ExpandTemplateAck(TcpOutputItem&& item, Emit&& emit) {
  if (item.extra_acks.empty()) {
    emit(std::move(item.frame));
    return;
  }
  TCPRX_CHECK_MSG(IsPureAck(item), "template ACK must be a pure ACK");
  emit(CopyFrame(item.frame));
  for (size_t i = 0; i + 1 < item.extra_acks.size(); ++i) {
    std::vector<uint8_t> copy = CopyFrame(item.frame);
    RewriteAckNumber(copy, kTcpFrameHeaderOffset, item.extra_acks[i]);
    emit(std::move(copy));
  }
  // The last ACK of the run reuses the template's own buffer.
  RewriteAckNumber(item.frame, kTcpFrameHeaderOffset, item.extra_acks.back());
  emit(std::move(item.frame));
}

}  // namespace tcprx

#endif  // SRC_CORE_TEMPLATE_ACK_H_
