#include "src/core/template_ack.h"

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/logging.h"
#include "src/wire/frame_buffer.h"

namespace tcprx {

// The TCP layer writes every output frame with WriteTcpFrame, so the TCP header sits at
// kTcpFrameHeaderOffset in each.

bool IsPureAck(const TcpOutputItem& item) {
  const size_t flags_offset = kTcpFrameHeaderOffset + 13;
  return item.payload_size == 0 && item.frame.size() > flags_offset &&
         item.frame[flags_offset] == kTcpAck;
}

void ExpandTemplateAck(TcpOutputItem item,
                       const std::function<void(std::vector<uint8_t>)>& emit) {
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
