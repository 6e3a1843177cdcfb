#include "src/core/aggregator.h"

#include <algorithm>

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/logging.h"

namespace tcprx {

namespace {

// Largest IP datagram we allow an aggregate to grow to.
constexpr size_t kMaxAggregateDatagram = 0xffff;

// MSS-sized segments in one such datagram: 45.
constexpr size_t kMaxMssSegmentsPerDatagram = kMaxAggregateDatagram / kMssWithTimestamps;

}  // namespace

Aggregator::Aggregator(size_t aggregation_limit) : aggregation_limit_(aggregation_limit) {
  TCPRX_CHECK(aggregation_limit_ >= 1);
}

Aggregator::Eligibility Aggregator::CheckEligibility(const Packet& frame) const {
  const TcpFrameView& view = *frame.view;
  if (view.ip.HasOptions()) {
    return {false, AggrBypassReason::kIpOptions};
  }
  if (view.ip.IsFragmented()) {
    return {false, AggrBypassReason::kIpFragment};
  }
  // The parse checked the header; aggr_match carries the check's modelled cost.
  if (!view.ip_checksum_ok) {
    return {false, AggrBypassReason::kBadIpChecksum};
  }
  if (!frame.nic_checksum_verified) {
    // Software TCP checksum verification would defeat the optimization; without rx
    // checksum offload the paper disables Receive Aggregation outright.
    return {false, AggrBypassReason::kNoNicChecksum};
  }
  if (view.payload_size == 0) {
    return {false, AggrBypassReason::kZeroPayload};
  }
  constexpr uint8_t kDisallowed = kTcpSyn | kTcpFin | kTcpRst | kTcpUrg;
  if ((view.tcp.flags & kDisallowed) != 0) {
    return {false, AggrBypassReason::kSpecialFlags};
  }
  if (!view.tcp.OptionsOnlyTimestamp()) {
    return {false, AggrBypassReason::kBadOptions};
  }
  return {true, AggrBypassReason::kCount};
}

PacketPtr Aggregator::Push(PacketPtr frame, HostPackets& out) {
  ++stats_.pushed;
  if (!frame->view.has_value()) {
    ++stats_.bypass[static_cast<size_t>(AggrBypassReason::kNotTcp)];
    ++stats_.raw_delivered;
    return frame;
  }
  const TcpFrameView& view = *frame->view;
  const FlowKey key = view.flow();

  const Eligibility elig = CheckEligibility(*frame);
  if (!elig.eligible) {
    ++stats_.bypass[static_cast<size_t>(elig.reason)];
    // Never let a bypassing packet overtake its flow's partial aggregate.
    FlushFlow(key, out);
    ++stats_.passthrough;
    ++stats_.host_packets;
    out.push_back(SkBuff::Wrap(std::move(frame)));
    return nullptr;
  }

  const size_t at = Find(key);
  if (at < table_.size()) {
    Partial& partial = table_[at].second;
    if (TryAppend(partial, frame)) {
      if (partial.skb->fragment_info.size() >= aggregation_limit_) {
        ++stats_.limit_flushes;
        Finalize(at, out);
      }
      return nullptr;
    }
    // Doesn't chain: deliver the partial, then start fresh with this packet.
    ++stats_.mismatch_flushes;
    Finalize(at, out);
  }
  StartPartial(key, std::move(frame));
  if (aggregation_limit_ == 1) {
    ++stats_.limit_flushes;
    Finalize(table_.size() - 1, out);
  }
  return nullptr;
}

size_t Aggregator::Find(const FlowKey& key) const {
  size_t at = 0;
  while (at < table_.size() && table_[at].first != key) {
    ++at;
  }
  return at;
}

void Aggregator::StartPartial(const FlowKey& key, PacketPtr frame) {
  Partial partial;
  partial.total_payload = frame->view->payload_size;
  partial.skb = SkBuff::Wrap(std::move(frame));
  table_.emplace_back(key, std::move(partial));
}

bool Aggregator::TryAppend(Partial& partial, PacketPtr& frame) {
  const TcpFrameView& view = *frame->view;
  const TcpFrameView& head = partial.skb->view();
  const FragmentInfo& last = partial.skb->fragment_info.back();
  // In-sequence by sequence number (section 3.1).
  if (view.tcp.seq != last.seq + last.payload_len) {
    return false;
  }
  // In-sequence by acknowledgment number: never decreasing.
  if (!SeqGe(view.tcp.ack, last.ack)) {
    return false;
  }
  // Identical option structure: both with timestamps or both without.
  if (view.tcp.timestamp.has_value() != head.tcp.timestamp.has_value()) {
    return false;
  }
  // Identical IP TOS and TTL: differing values would be lost by coalescing (the same
  // rule Linux GRO applies).
  if (view.ip.tos != head.ip.tos || view.ip.ttl != head.ip.ttl) {
    return false;
  }
  // The aggregate must stay within one IP datagram.
  const size_t head_headers = head.payload_offset - head.ip_offset;
  if (head_headers + partial.total_payload + view.payload_size > kMaxAggregateDatagram) {
    return false;
  }

  if (partial.skb->frames.size() == 1) {
    // The first segment to chain: size the lists for a whole aggregate now rather than
    // growing them 1, 2, 4, 8... Lone packets never get here.
    const size_t entries = std::min(aggregation_limit_, kMaxMssSegmentsPerDatagram);
    partial.skb->fragment_info.reserve(entries);
    partial.skb->frames.reserve(entries);
  }
  partial.skb->fragment_info.push_back(FragmentInfo{
      view.tcp.seq, view.tcp.ack, view.tcp.window, static_cast<uint32_t>(view.payload_size)});
  partial.total_payload += view.payload_size;
  partial.skb->frames.push_back(std::move(frame));
  ++stats_.aggregated_segments;
  return true;
}

void Aggregator::RewriteAggregateHeader(Partial& partial) {
  SkBuff& skb = *partial.skb;
  TcpFrameView& head = *skb.head().view;
  const TcpHeader& last_tcp = skb.frames.back()->view->tcp;
  const FragmentInfo& last = skb.fragment_info.back();
  std::span<uint8_t> bytes = skb.head().MutableBytes();
  const size_t ip_off = head.ip_offset;
  const size_t tcp_off = head.tcp_offset;
  const size_t ip_hsize = head.ip.HeaderSize();
  const size_t tcp_hsize = head.tcp.HeaderSize();

  // IP total length covers the whole aggregate; fresh header checksum (the paper
  // recomputes the IP checksum of the aggregated packet). TryAppend bounds every
  // chain at kMaxAggregateDatagram, so the 16-bit field cannot silently wrap here.
  const size_t datagram_size = ip_hsize + tcp_hsize + partial.total_payload;
  TCPRX_CHECK_MSG(datagram_size <= kMaxAggregateDatagram,
                  "aggregate overflows the 16-bit IP total-length field");
  head.ip.total_length = static_cast<uint16_t>(datagram_size);
  StoreBe16(bytes.data() + ip_off + 2, head.ip.total_length);
  StoreBe16(bytes.data() + ip_off + 10, 0);
  // tcprx-check: allow(charge) -- 20-byte IP header re-checksum of the aggregate;
  // priced into aggr_flush_per_host_packet, charged when the stack delivers it.
  head.ip.checksum = InternetChecksum(bytes.subspan(ip_off, ip_hsize));
  StoreBe16(bytes.data() + ip_off + 10, head.ip.checksum);

  // TCP: ack number and window from the last fragment; sequence number stays the
  // first fragment's (already in place).
  head.tcp.ack = last.ack;
  head.tcp.window = last.window;
  StoreBe32(bytes.data() + tcp_off + 8, head.tcp.ack);
  StoreBe16(bytes.data() + tcp_off + 14, head.tcp.window);
  // Propagate the last fragment's PSH bit.
  if (last_tcp.Has(kTcpPsh)) {
    head.tcp.flags |= kTcpPsh;
    bytes[tcp_off + 13] |= kTcpPsh;
  }
  // Timestamp copied from the last fragment (section 3.2), into the head's option
  // where its parse found it (TryAppend chains only frames that agree on having one).
  if (last_tcp.timestamp.has_value()) {
    uint8_t* ts = bytes.data() + tcp_off + kTcpMinHeaderSize + head.tcp.timestamp_offset;
    StoreBe32(ts + 2, last_tcp.timestamp->value);
    StoreBe32(ts + 6, last_tcp.timestamp->echo_reply);
    head.tcp.timestamp = last_tcp.timestamp;
    std::copy(ts + 2, ts + 10, head.tcp.raw_options.data() + head.tcp.timestamp_offset + 2);
  }
  // The TCP checksum is NOT recomputed: every constituent was verified by the NIC, the
  // head included, and the stack reads the head's verdict (section 3.2).
}

void Aggregator::Finalize(size_t at, HostPackets& out) {
  Partial partial = std::move(table_[at].second);
  table_.erase(table_.begin() + static_cast<std::ptrdiff_t>(at));

  // A lone packet is delivered unmodified, exactly like a packet that never met the
  // aggregator.
  if (partial.skb->frames.size() > 1) {
    RewriteAggregateHeader(partial);
    ++stats_.aggregates_delivered;
  }
  ++stats_.host_packets;
  out.push_back(std::move(partial.skb));
}

void Aggregator::FlushFlow(const FlowKey& key, HostPackets& out) {
  const size_t at = Find(key);
  if (at < table_.size()) {
    ++stats_.bypass_flushes;
    Finalize(at, out);
  }
}

void Aggregator::FlushAll(HostPackets& out) {
  while (!table_.empty()) {
    ++stats_.idle_flushes;
    Finalize(0, out);
  }
}

}  // namespace tcprx
