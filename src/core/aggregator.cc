#include "src/core/aggregator.h"

#include <algorithm>

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/logging.h"

namespace tcprx {

namespace {

// Largest IP datagram we allow an aggregate to grow to.
constexpr size_t kMaxAggregateDatagram = 0xffff;

// Finds the offset of the timestamp option's kind byte within `options`, or -1.
int FindTimestampOption(std::span<const uint8_t> options) {
  size_t i = 0;
  while (i < options.size()) {
    const uint8_t kind = options[i];
    if (kind == kTcpOptEnd) {
      break;
    }
    if (kind == kTcpOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= options.size()) {
      break;
    }
    const uint8_t len = options[i + 1];
    if (len < 2 || i + len > options.size()) {
      break;
    }
    if (kind == kTcpOptTimestamp) {
      return static_cast<int>(i);
    }
    i += len;
  }
  return -1;
}

}  // namespace

Aggregator::Aggregator(const AggregatorConfig& config, DeliverFn deliver)
    : config_(config), deliver_(std::move(deliver)) {
  TCPRX_CHECK(config_.aggregation_limit >= 1);
}

Aggregator::Eligibility Aggregator::CheckEligibility(const Packet& frame) const {
  const TcpFrameView& view = *frame.view;
  if (view.ip.HasOptions()) {
    return {false, AggrBypassReason::kIpOptions};
  }
  if (view.ip.IsFragmented()) {
    return {false, AggrBypassReason::kIpFragment};
  }
  // tcprx-check: allow(charge) -- eligibility runs under the aggr_early_demux/
  // aggr_match cycles NetworkStack charges per frame before calling Push.
  if (!VerifyIpv4Checksum(
          frame.Bytes().subspan(view.ip_offset, view.ip.HeaderSize()))) {
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

void Aggregator::Push(PacketPtr frame) {
  ++stats_.pushed;
  if (!frame->view.has_value()) {
    ++stats_.bypass[static_cast<size_t>(AggrBypassReason::kNotTcp)];
    if (deliver_raw_) {
      ++stats_.raw_delivered;
      deliver_raw_(std::move(frame));
    } else {
      ++stats_.raw_dropped;
    }
    return;
  }
  const TcpFrameView& view = *frame->view;
  const FlowKey key{view.ip.src, view.ip.dst, view.tcp.src_port, view.tcp.dst_port};

  const Eligibility elig = CheckEligibility(*frame);
  if (!elig.eligible) {
    ++stats_.bypass[static_cast<size_t>(elig.reason)];
    // Never let a bypassing packet overtake its flow's partial aggregate.
    FlushFlow(key);
    ++stats_.passthrough;
    DeliverSkb(SkBuff::Wrap(std::move(frame)));
    return;
  }

  auto it = table_.find(key);
  if (it != table_.end()) {
    if (TryAppend(it->second, frame)) {
      if (it->second.skb->fragment_info.size() >= config_.aggregation_limit) {
        ++stats_.limit_flushes;
        Finalize(key, /*by_limit=*/true);
      }
      return;
    }
    // Doesn't chain: deliver the partial, then start fresh with this packet.
    ++stats_.mismatch_flushes;
    Finalize(key, /*by_limit=*/false);
  }
  StartPartial(key, std::move(frame));
  if (config_.aggregation_limit == 1) {
    ++stats_.limit_flushes;
    Finalize(key, /*by_limit=*/true);
  }
}

void Aggregator::StartPartial(const FlowKey& key, PacketPtr frame) {
  const TcpFrameView& view = *frame->view;
  Partial partial;
  partial.total_payload = view.payload_size;
  partial.skb = SkBuff::Wrap(std::move(frame));
  partial.skb->fragment_info.push_back(FragmentInfo{
      view.tcp.seq, view.tcp.ack, view.tcp.window, static_cast<uint32_t>(view.payload_size)});

  table_.emplace(key, std::move(partial));
  flow_order_.push_back(key);
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

  partial.skb->fragment_info.push_back(FragmentInfo{
      view.tcp.seq, view.tcp.ack, view.tcp.window, static_cast<uint32_t>(view.payload_size)});
  partial.total_payload += view.payload_size;
  partial.skb->frags.push_back(std::move(frame));
  ++stats_.aggregated_segments;
  return true;
}

void Aggregator::RewriteAggregateHeader(Partial& partial) {
  SkBuff& skb = *partial.skb;
  const TcpFrameView& head = skb.view();
  const TcpHeader& last_tcp = skb.frags.back()->view->tcp;
  const FragmentInfo& last = skb.fragment_info.back();
  std::span<uint8_t> bytes = skb.head->MutableBytes();
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
  const uint16_t total_length = static_cast<uint16_t>(datagram_size);
  StoreBe16(bytes.data() + ip_off + 2, total_length);
  StoreBe16(bytes.data() + ip_off + 10, 0);
  // tcprx-check: allow(charge) -- 20-byte IP header re-checksum of the aggregate;
  // priced into aggr_flush_per_host_packet, charged by the stack's deliver hook.
  const uint16_t ip_csum = InternetChecksum(bytes.subspan(ip_off, ip_hsize));
  StoreBe16(bytes.data() + ip_off + 10, ip_csum);

  // TCP: ack number and window from the last fragment; sequence number stays the
  // first fragment's (already in place).
  StoreBe32(bytes.data() + tcp_off + 8, last.ack);
  StoreBe16(bytes.data() + tcp_off + 14, last.window);
  // Propagate the last fragment's PSH bit.
  if (last_tcp.Has(kTcpPsh)) {
    bytes[tcp_off + 13] |= kTcpPsh;
  }
  // Timestamp copied from the last fragment (section 3.2).
  if (last_tcp.timestamp.has_value()) {
    const std::span<uint8_t> options =
        bytes.subspan(tcp_off + kTcpMinHeaderSize, tcp_hsize - kTcpMinHeaderSize);
    const int ts_at = FindTimestampOption(options);
    TCPRX_CHECK_MSG(ts_at >= 0, "timestamp option vanished from aggregate head");
    StoreBe32(options.data() + ts_at + 2, last_tcp.timestamp->value);
    StoreBe32(options.data() + ts_at + 6, last_tcp.timestamp->echo_reply);
  }
  // The TCP checksum is NOT recomputed: every constituent was verified by the NIC, so
  // the aggregate is marked pre-verified instead (section 3.2).
  skb.csum_verified = true;
  skb.ReparseHead();
}

void Aggregator::Finalize(const FlowKey& key, bool /*by_limit*/) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return;
  }
  Partial partial = std::move(it->second);
  table_.erase(it);
  auto pos = std::find(flow_order_.begin(), flow_order_.end(), key);
  TCPRX_CHECK(pos != flow_order_.end());
  flow_order_.erase(pos);

  if (partial.skb->fragment_info.size() == 1) {
    // A lone packet is delivered unmodified; drop the metadata so the TCP layer treats
    // it exactly like a packet that never met the aggregator.
    partial.skb->fragment_info.clear();
    DeliverSkb(std::move(partial.skb));
    return;
  }
  RewriteAggregateHeader(partial);
  ++stats_.aggregates_delivered;
  DeliverSkb(std::move(partial.skb));
}

void Aggregator::DeliverSkb(SkBuffPtr skb) {
  ++stats_.host_packets;
  deliver_(std::move(skb));
}

void Aggregator::FlushFlow(const FlowKey& key) {
  if (table_.find(key) != table_.end()) {
    ++stats_.idle_flushes;
    Finalize(key, /*by_limit=*/false);
  }
}

void Aggregator::FlushAll() {
  while (!flow_order_.empty()) {
    ++stats_.idle_flushes;
    Finalize(flow_order_.front(), /*by_limit=*/false);
  }
}

}  // namespace tcprx
