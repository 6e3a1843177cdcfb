#include "src/tcp/tcp_connection.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/util/harness_counters.h"
#include "src/util/logging.h"

namespace tcprx {

namespace {
constexpr SimDuration kDelayedAckTimeout = SimDuration::FromMillis(40);
// The window every segment advertises: the largest an unscaled 16-bit field holds.
// Delivered data is consumed at once, so the window is always fully open, and no
// workload needs a larger one: window scaling is never offered, and a peer's offer
// gets the unscaled answer RFC 7323 requires.
constexpr uint16_t kReceiveWindow = 65535;
}  // namespace

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kListen:
      return "LISTEN";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynReceived:
      return "SYN_RECEIVED";
    case TcpState::kEstablished:
      return "ESTABLISHED";
  }
  return "?";
}

TcpConnection::TcpConnection(const TcpConnectionConfig& config, EventLoop& loop, Owner& owner)
    : config_(config),
      loop_(loop),
      owner_(owner),
      reno_(config.mss),
      rto_timer_(loop, [this] { OnRtoFired(); }),
      delack_timer_(loop, [this] { OnDelayedAckFired(); }),
      frame_template_(MakeTcpFrameTemplate(config.local_mac, config.remote_mac,
                                           config.local_ip, config.remote_ip,
                                           config.local_port, config.remote_port)) {
  iss_ = config_.initial_seq;
  snd_una_ = iss_;
  snd_nxt_ = iss_;
  recover_ = iss_;
}

void TcpConnection::SetState(TcpState s) {
  state_ = s;
  if (s == TcpState::kClosed) {
    rto_timer_.Cancel();
    delack_timer_.Cancel();
  }
}

uint64_t TcpConnection::Unwrap(uint32_t wire, uint64_t reference) const {
  const int64_t diff =
      static_cast<int32_t>(wire - static_cast<uint32_t>(reference));
  int64_t result = static_cast<int64_t>(reference) + diff;
  if (result < 0) {
    result += int64_t{1} << 32;
  }
  return static_cast<uint64_t>(result);
}

uint32_t TcpConnection::NowTsMs() const {
  return static_cast<uint32_t>(loop_.Now().nanos() / 1'000'000) + 1;
}

// ---------------------------------------------------------------------------
// Application interface
// ---------------------------------------------------------------------------

void TcpConnection::Connect() {
  TCPRX_CHECK(state_ == TcpState::kClosed);
  SetState(TcpState::kSynSent);
  EmitSyn(/*with_ack=*/false);
}

void TcpConnection::Listen() {
  TCPRX_CHECK(state_ == TcpState::kClosed);
  SetState(TcpState::kListen);
}

void TcpConnection::Send(std::span<const uint8_t> data) {
  send_stream_.Append(data);
  TrySendData();
}

void TcpConnection::SendSynthetic(uint64_t total_bytes, SyntheticPayload payload) {
  send_stream_.SetSynthetic(total_bytes);
  synthetic_payload_ = payload;
  TrySendData();
}

// ---------------------------------------------------------------------------
// Input path
// ---------------------------------------------------------------------------

void TcpConnection::OnHostPacket(SkBuff& skb) {
  // An open batch is what an output item's extra_acks views: a packet delivered from
  // inside the output call would overwrite it.
  TCPRX_CHECK_MSG(pending_acks_.empty(), "OnHostPacket re-entered while an ACK batch is open");
  switch (state_) {
    case TcpState::kClosed:
      return;  // drop silently
    case TcpState::kListen:
      ProcessListen(skb);
      return;
    case TcpState::kSynSent:
      ProcessSynSent(skb);
      return;
    default:
      ProcessSegmentCommon(skb);
      return;
  }
}

void TcpConnection::ProcessListen(const SkBuff& skb) {
  const TcpHeader& h = skb.view().tcp;
  if (!h.Has(kTcpSyn) || h.Has(kTcpAck) || h.Has(kTcpRst)) {
    return;
  }
  AdoptPeerSyn(h);
  snd_wl2_ = iss_;
  SetState(TcpState::kSynReceived);
  EmitSyn(/*with_ack=*/true);
}

void TcpConnection::ProcessSynSent(const SkBuff& skb) {
  const TcpHeader& h = skb.view().tcp;
  if (h.Has(kTcpRst)) {
    SetState(TcpState::kClosed);
    return;
  }
  if (!h.Has(kTcpSyn) || !h.Has(kTcpAck)) {
    return;
  }
  const uint64_t ack = Unwrap(h.ack, snd_nxt_);
  if (ack != iss_ + 1) {
    return;  // not acking our SYN
  }
  AdoptPeerSyn(h);
  snd_una_ = ack;
  snd_wl2_ = ack;
  rto_timer_.Cancel();
  SetState(TcpState::kEstablished);
  EmitAck();
  if (on_established_) {
    on_established_();
  }
  TrySendData();
}

void TcpConnection::AdoptPeerSyn(const TcpHeader& h) {
  irs_ = h.seq;
  rcv_nxt_ = irs_ + 1;
  peer_uses_timestamps_ = h.timestamp.has_value();
  if (h.timestamp.has_value()) {
    ts_recent_ = h.timestamp->value;
  }
  peer_sack_ = h.sack_permitted && config_.sack;
  snd_wnd_ = h.window;
  snd_wl1_ = irs_;
}

void TcpConnection::ProcessSegmentCommon(SkBuff& skb) {
  const TcpHeader& h = skb.view().tcp;
  // There is no teardown: a FIN closes the connection as a RST does, and its payload
  // is dropped. A stack then answers the peer's next segment with its unknown-flow RST.
  if (h.Has(kTcpRst) || h.Has(kTcpFin)) {
    SetState(TcpState::kClosed);
    return;
  }
  const uint64_t seg_seq = Unwrap(h.seq, rcv_nxt_);
  const size_t payload_len = skb.PayloadSize();

  // RFC 7323 PAWS: a segment whose timestamp is strictly older than ts_recent is a
  // stale duplicate from a previous sequence-number epoch; drop it and re-ack.
  if (peer_uses_timestamps_ && h.timestamp.has_value() &&
      ts_recent_ != 0 &&
      static_cast<int32_t>(h.timestamp->value - ts_recent_) < 0) {
    ++paws_rejected_;
    EmitAck();
    return;
  }

  // Timestamp bookkeeping (simplified RFC 7323: remember the timestamp of segments at
  // or before the left window edge). For an aggregated packet the header timestamp is
  // the last fragment's, per the paper's section 3.2.
  if (h.timestamp.has_value() && seg_seq <= rcv_nxt_) {
    ts_recent_ = h.timestamp->value;
  }

  data_sent_in_pass_ = false;

  // ---- ACK field processing, per network segment --------------------------------
  //
  // For aggregated host packets the paper's modified TCP layer replays each
  // fragment's acknowledgment individually so congestion control sees the original
  // ACK granularity (section 3.4.1).
  if (peer_sack_ && h.has_sack_blocks) {
    for (const SackBlock& block : ParseSackBlocks(h.raw_options)) {
      scoreboard_.Add(Unwrap(block.start, snd_una_), Unwrap(block.end, snd_una_));
    }
  }

  if (h.Has(kTcpAck)) {
    uint64_t fseq = seg_seq;
    for (const FragmentInfo& fi : skb.fragment_info) {
      ProcessAckField(Unwrap(fi.ack, snd_una_), fi.window, fseq, fi.payload_len > 0);
      fseq += fi.payload_len;
    }
  }

  if (state_ == TcpState::kSynReceived && snd_una_ > iss_) {
    SetState(TcpState::kEstablished);
    if (on_established_) {
      on_established_();
    }
  }

  // ---- Payload delivery + ACK generation ------------------------------------------
  if (payload_len > 0) {
    DeliverPayload(skb, seg_seq);
  }

  if (!pending_acks_.empty()) {
    EmitPureAcks(pending_acks_);
    pending_acks_.clear();
  }

  TrySendData();

  if (segs_since_ack_ > 0 && !data_sent_in_pass_) {
    delack_timer_.Arm(kDelayedAckTimeout);
  }
}

void TcpConnection::ProcessAckField(uint64_t ack, uint16_t window, uint64_t seg_seq,
                                    bool has_payload) {
  if (ack > snd_nxt_) {
    return;  // acks data we never sent; ignore
  }
  if (ack > snd_una_) {
    const uint64_t newly = ack - snd_una_;
    snd_una_ = ack;
    // Stream offsets exclude the SYN.
    if (snd_una_ > iss_ + 1) {
      send_stream_.ReleaseThrough(snd_una_ - (iss_ + 1));
    }
    scoreboard_.ClearBelow(snd_una_);
    rto_backoff_ = 0;

    // Karn-sampled RTT measurement.
    if (rtt_probe_armed_ && ack >= rtt_probe_seq_) {
      rtt_.AddSample(loop_.Now() - rtt_probe_sent_at_);
      rtt_probe_armed_ = false;
    }

    if (reno_.in_recovery()) {
      if (ack >= recover_) {
        reno_.OnRecoveryComplete();
      } else if (peer_sack_) {
        // With SACK, partial acks drive the hole-by-hole retransmission schedule.
        SackRetransmit();
      } else {
        // NewReno partial ACK: the next hole is lost too; retransmit it now.
        RetransmitHead();
      }
    } else {
      reno_.OnNewAck(static_cast<uint32_t>(std::min<uint64_t>(newly, 0xffffffff)));
    }

    if (snd_una_ == snd_nxt_) {
      rto_timer_.Cancel();
    } else {
      ArmRto();
    }
  } else if (ack == snd_una_) {
    // Duplicate ACK per RFC 5681: no payload, outstanding data, window unchanged.
    if (!has_payload && snd_nxt_ > snd_una_ && window == snd_wnd_) {
      if (reno_.OnDupAck()) {
        recover_ = snd_nxt_;
        rtx_high_ = snd_una_;
        RetransmitHead();
      } else if (reno_.in_recovery() && peer_sack_) {
        // Each further dup ACK both inflates the window and licenses retransmission
        // of one more known hole (paced, never the same hole twice per episode).
        SackRetransmit();
      }
    }
  }

  // RFC 793 window update rule. Neither side scales, so the field is the window.
  if (snd_wl1_ < seg_seq || (snd_wl1_ == seg_seq && snd_wl2_ <= ack)) {
    snd_wnd_ = window;
    snd_wl1_ = seg_seq;
    snd_wl2_ = ack;
  }
}

void TcpConnection::DeliverPayload(SkBuff& skb, uint64_t seg_seq) {
  // Replay each constituent network segment through the full receive machine, in
  // arrival order (section 3.4.2); a lone packet is one. Running the complete
  // per-segment logic — duplicate detection, out-of-order buffering, reassembly
  // pops — between fragments is what makes aggregation invisible to the sender:
  // e.g. a retransmitted segment chained onto a hole-filling one must still draw
  // both the hole-fill ACK and the duplicate ACK the unaggregated stack emits.
  uint64_t fseq = seg_seq;
  for (size_t i = 0; i < skb.fragment_info.size(); ++i) {
    const FragmentInfo& fi = skb.fragment_info[i];
    TCPRX_CHECK_MSG(skb.frames[i]->view->payload_size == fi.payload_len,
                    "aggregate fragment metadata disagrees with payload layout");
    if (fi.payload_len > 0) {
      DeliverSegment(skb.frames[i], fseq);
    }
    fseq += fi.payload_len;
  }
}

void TcpConnection::DeliverSegment(PacketPtr& frame, uint64_t seg_seq) {
  const std::span<const uint8_t> payload = frame->Payload();
  const uint64_t seg_end = seg_seq + payload.size();

  if (seg_end <= rcv_nxt_) {
    // Entirely duplicate data (a retransmission we already have): ack immediately.
    // The cumulative ACK also covers any odd segment awaiting a delayed ACK.
    ++duplicate_segments_received_;
    pending_acks_.push_back(static_cast<uint32_t>(rcv_nxt_));
    segs_since_ack_ = 0;
    return;
  }

  if (seg_seq > rcv_nxt_) {
    // Out of order: buffer it and send a duplicate ACK, so the sender's
    // fast-retransmit threshold behaves as without aggregation.
    reassembly_.Insert(seg_seq, std::move(frame));
    ++ooo_segments_received_;
    pending_acks_.push_back(static_cast<uint32_t>(rcv_nxt_));
    segs_since_ack_ = 0;  // the dup ACK is cumulative
    return;
  }

  // In order, possibly overlapping the left edge: deliver the new bytes at once.
  const std::span<const uint8_t> usable = payload.subspan(static_cast<size_t>(rcv_nxt_ - seg_seq));
  rcv_nxt_ = seg_end;
  bytes_received_ += usable.size();
  owner_.Delivered(usable.size());
  if (on_data_) {
    on_data_(usable);
  }

  // ACK accounting: one ACK per `ack_every` segments (2 with delayed ACKs per
  // RFC 1122, 1 without).
  const uint32_t ack_every = config_.delayed_acks ? 2 : 1;
  ++segs_since_ack_;
  if (segs_since_ack_ >= ack_every) {
    pending_acks_.push_back(static_cast<uint32_t>(rcv_nxt_));
    segs_since_ack_ = 0;
  }

  // A delivery may have closed a reassembly hole. The run reaches the application
  // from the frames it arrived in, after rcv_nxt_ has passed all of it.
  if (!reassembly_.Empty()) {
    const size_t popped = reassembly_.PopInOrder(rcv_nxt_);
    if (popped > 0) {
      rcv_nxt_ += popped;
      bytes_received_ += popped;
      owner_.Delivered(popped);
      if (on_data_) {
        for (const ReassemblyQueue::Segment& segment : reassembly_.run()) {
          on_data_(segment.data);
        }
      }
      reassembly_.ReleaseRun();
      // Filling a hole triggers an immediate ACK (RFC 5681 section 4.2).
      pending_acks_.push_back(static_cast<uint32_t>(rcv_nxt_));
      segs_since_ack_ = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Output path
// ---------------------------------------------------------------------------

std::vector<uint8_t> TcpConnection::BuildSegment(uint32_t seq, uint32_t ack, uint8_t flags,
                                                 TcpPayload payload) {
  const uint16_t ip_id = next_ip_id_++;
  const TcpSegmentFields fields{seq, ack, flags, kReceiveWindow};
  const bool syn = (flags & kTcpSyn) != 0;
  // SACK blocks ride on pure ACKs when the receiver is holding out-of-order data.
  const bool sack_blocks =
      peer_sack_ && flags == kTcpAck && payload.size() == 0 && !reassembly_.Empty();
  if (!syn && peer_uses_timestamps_ && !sack_blocks) {
    // The established shape: the header image carries every option byte but the two
    // timestamp values.
    // tcprx-check: allow(charge) -- transmit-side serialization; the stack bills the
    // whole tx pass via ChargeTxStackPass when the output item is emitted.
    return WriteTcpFrame(frame_template_, ip_id, fields,
                         TcpOptionSource::Established({NowTsMs(), ts_recent_}), payload,
                         config_.fill_tcp_checksum);
  }
  // Any other segment puts its option bytes together once, each option written in
  // place; the writer copies them into the frame.
  ++thread_harness_counters.tcp_option_blocks_built;
  TcpOptionBytes options;
  if (syn) {
    // MSS option.
    options.push_back(kTcpOptMss);
    options.push_back(4);
    options.push_back(static_cast<uint8_t>(config_.mss >> 8));
    options.push_back(static_cast<uint8_t>(config_.mss & 0xff));
    if (config_.sack) {
      options.push_back(kTcpOptSackPermitted);
      options.push_back(2);
    }
  }
  if (syn || peer_uses_timestamps_) {
    WriteTimestampOption(TcpTimestampOption{NowTsMs(), ts_recent_},
                         options.Append(kTcpTimestampOptionSize));
  }
  if (sack_blocks) {
    std::array<SackBlock, 3> blocks;
    AppendSackOption(std::span(blocks).first(reassembly_.SackBlocks(blocks)), options);
  }
  // tcprx-check: allow(charge) -- transmit-side serialization; the stack bills the
  // whole tx pass via ChargeTxStackPass when the output item is emitted.
  return WriteTcpFrame(frame_template_, ip_id, fields, options, payload,
                       config_.fill_tcp_checksum);
}

void TcpConnection::EmitSyn(bool with_ack) {
  const uint8_t flags = static_cast<uint8_t>(kTcpSyn | (with_ack ? kTcpAck : 0));
  const uint32_t ack = with_ack ? static_cast<uint32_t>(rcv_nxt_) : 0;
  TcpOutputItem item;
  item.frame = BuildSegment(static_cast<uint32_t>(iss_), ack, flags, {});
  snd_nxt_ = iss_ + 1;
  owner_.Output(*this, std::move(item));
  ArmRto();
}

void TcpConnection::EmitAck() {
  const uint32_t ack = static_cast<uint32_t>(rcv_nxt_);
  EmitPureAcks({&ack, 1});
}

void TcpConnection::EmitPureAcks(std::span<const uint32_t> ack_values) {
  TCPRX_CHECK(!ack_values.empty());
  TcpOutputItem item;
  item.frame =
      BuildSegment(static_cast<uint32_t>(snd_nxt_), ack_values.front(), kTcpAck, {});
  item.extra_acks = ack_values.subspan(1);
  acks_emitted_ += ack_values.size();
  if (ack_trace_enabled_) {
    ack_trace_.insert(ack_trace_.end(), ack_values.begin(), ack_values.end());
  }
  // NOTE: segs_since_ack_ is deliberately NOT reset here. A batch of boundary ACKs
  // from an aggregated packet may leave a trailing odd segment still owed an ACK;
  // the callers reset the counter exactly where a cumulative ACK covers it.
  delack_timer_.Cancel();
  owner_.Output(*this, std::move(item));
}

void TcpConnection::EmitDataSegment(uint64_t seq, uint32_t len, bool retransmit) {
  const std::span<const uint8_t> bytes = send_stream_.View(seq - (iss_ + 1), len);
  const TcpPayload payload = synthetic_payload_ == SyntheticPayload::kLengthOnly
                                 ? TcpPayload::LengthOnly(bytes.size())
                                 : TcpPayload(bytes);
  TcpOutputItem item;
  item.frame = BuildSegment(static_cast<uint32_t>(seq), static_cast<uint32_t>(rcv_nxt_),
                            static_cast<uint8_t>(kTcpAck | kTcpPsh), payload);
  item.payload_size = len;
  if (!retransmit && !rtt_probe_armed_) {
    rtt_probe_armed_ = true;
    rtt_probe_seq_ = seq + len;
    rtt_probe_sent_at_ = loop_.Now();
  }
  if (retransmit && rtt_probe_armed_ && seq < rtt_probe_seq_) {
    rtt_probe_armed_ = false;  // Karn: never sample a retransmitted range
  }
  segs_since_ack_ = 0;
  delack_timer_.Cancel();
  data_sent_in_pass_ = true;
  owner_.Output(*this, std::move(item));
}

void TcpConnection::TrySendData() {
  if (state_ != TcpState::kEstablished) {
    return;
  }
  bool sent = false;
  for (;;) {
    const uint64_t offset = snd_nxt_ - (iss_ + 1);
    const uint64_t avail = send_stream_.AvailableFrom(offset);
    const uint64_t inflight = snd_nxt_ - snd_una_;
    const uint64_t wnd = std::min<uint64_t>(snd_wnd_, reno_.cwnd());
    if (avail == 0 || inflight >= wnd) {
      break;
    }
    const uint64_t space = wnd - inflight;
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>({avail, space, config_.mss}));
    if (len == 0) {
      break;
    }
    // Sender-side silly-window-syndrome avoidance (RFC 1122 4.2.3.4): never emit a
    // sub-MSS segment in the middle of a bulk stream just because the window edge
    // is not MSS-aligned; wait for the next ACK to open a full segment's worth.
    if (len < config_.mss && avail >= config_.mss && inflight > 0) {
      break;
    }
    EmitDataSegment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
    sent = true;
  }

  if (sent) {
    ArmRto();
  }
}

void TcpConnection::RetransmitHead() {
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    EmitSyn(state_ == TcpState::kSynReceived);
    ++segments_retransmitted_;
    return;
  }
  if (snd_una_ == snd_nxt_) {
    return;
  }
  // With SACK, aim the retransmission at the first real hole instead of blindly at
  // snd_una (which may already be covered by a sacked range above a filled hole).
  uint64_t base = snd_una_;
  uint64_t hole_end = snd_nxt_;
  if (peer_sack_) {
    base = scoreboard_.NextUnsackedFrom(snd_una_);
    if (base >= snd_nxt_) {
      return;  // everything outstanding is sacked; wait for the cumulative ack
    }
    hole_end = scoreboard_.HoleEnd(base, snd_nxt_);
  }
  const uint32_t len =
      static_cast<uint32_t>(std::min<uint64_t>(hole_end - base, config_.mss));
  if (len == 0) {
    return;
  }
  if (peer_sack_ && base + len > rtx_high_) {
    rtx_high_ = base + len;
  }
  EmitDataSegment(base, len, /*retransmit=*/true);
  ++segments_retransmitted_;
}

void TcpConnection::SackRetransmit() {
  uint64_t seq = rtx_high_ > snd_una_ ? rtx_high_ : snd_una_;
  seq = scoreboard_.NextUnsackedFrom(seq);
  if (seq >= snd_nxt_) {
    return;  // no further known holes
  }
  const uint64_t hole_end = scoreboard_.HoleEnd(seq, snd_nxt_);
  if (hole_end >= snd_nxt_) {
    // No SACKed range above this gap: it is in-flight tail data, not a known loss
    // (RFC 6675 only marks segments lost when SACKed data exists above them).
    return;
  }
  const uint32_t len =
      static_cast<uint32_t>(std::min<uint64_t>(hole_end - seq, config_.mss));
  if (len == 0) {
    return;
  }
  rtx_high_ = seq + len;
  EmitDataSegment(seq, len, /*retransmit=*/true);
  ++segments_retransmitted_;
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void TcpConnection::ArmRto() {
  SimDuration rto = rtt_.Rto();
  for (uint32_t i = 0; i < rto_backoff_ && rto < RttEstimator::kMaxRto; ++i) {
    rto = SimDuration::FromNanos(rto.nanos() * 2);
  }
  rto_timer_.Arm(rto);
}

void TcpConnection::OnRtoFired() {
  const bool handshake =
      state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived;
  if (!handshake && snd_una_ == snd_nxt_) {
    return;
  }
  ++rto_backoff_;
  ++rto_events_;
  if (rto_backoff_ > 10) {
    // Give up: the connection is dead.
    SetState(TcpState::kClosed);
    return;
  }
  reno_.OnTimeout();
  RetransmitHead();
  ArmRto();
}

void TcpConnection::OnDelayedAckFired() {
  if (segs_since_ack_ == 0) {
    return;
  }
  segs_since_ack_ = 0;
  EmitAck();
}

}  // namespace tcprx
