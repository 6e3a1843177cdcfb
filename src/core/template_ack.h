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

#ifndef SRC_CORE_TEMPLATE_ACK_H_
#define SRC_CORE_TEMPLATE_ACK_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/tcp/tcp_connection.h"

namespace tcprx {

// True when the item's frame is a pure ACK: flags exactly ACK and no payload.
bool IsPureAck(const TcpOutputItem& item);

// Emits the frames an output item stands for, in ack order: first the item's own
// frame byte for byte, then one copy per `extra_acks` entry with the TCP ack number
// rewritten and the checksum patched incrementally (zero checksums — tx offload — stay
// zero). Aborts if an item with extra acks is not a pure ACK.
void ExpandTemplateAck(TcpOutputItem item,
                       const std::function<void(std::vector<uint8_t>)>& emit);

// Rewrites the ack number of a single contiguous ACK frame in place, patching the TCP
// checksum incrementally.
void RewriteAckNumber(std::span<uint8_t> frame, size_t tcp_offset, uint32_t new_ack);

}  // namespace tcprx

#endif  // SRC_CORE_TEMPLATE_ACK_H_
