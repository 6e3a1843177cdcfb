#include "src/core/template_ack.h"

#include "src/util/byte_order.h"
#include "src/util/checksum.h"

namespace tcprx {

// The TCP layer writes every output frame with WriteTcpFrame, so the TCP header sits at
// kTcpFrameHeaderOffset in each.

bool IsPureAck(const TcpOutputItem& item) {
  const size_t flags_offset = kTcpFrameHeaderOffset + 13;
  return item.payload_size == 0 && item.frame.size() > flags_offset &&
         item.frame[flags_offset] == kTcpAck;
}

void RewriteAckNumber(std::span<uint8_t> frame, size_t tcp_offset, uint32_t new_ack) {
  uint8_t* ack_field = frame.data() + tcp_offset + 8;
  const uint32_t old_ack = LoadBe32(ack_field);
  StoreBe32(ack_field, new_ack);

  uint8_t* csum_field = frame.data() + tcp_offset + 16;
  const uint16_t old_csum = LoadBe16(csum_field);
  if (old_csum != 0) {
    // RFC 1624 incremental update keeps the checksum valid without touching the rest
    // of the packet. A zero checksum means tx checksum offload; leave it zero.
    StoreBe16(csum_field, ChecksumUpdateDword(old_csum, old_ack, new_ack));
  }
}

}  // namespace tcprx
