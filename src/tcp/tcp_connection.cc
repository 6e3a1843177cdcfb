#include "src/tcp/tcp_connection.h"

#include <algorithm>

#include "src/util/logging.h"

namespace tcprx {

namespace {
constexpr SimDuration kDelayedAckTimeout = SimDuration::FromMillis(40);
constexpr SimDuration kTimeWaitDuration = SimDuration::FromMillis(1000);
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
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
  }
  return "?";
}

TcpConnection::TcpConnection(const TcpConnectionConfig& config, EventLoop& loop, OutputFn output)
    : config_(config),
      loop_(loop),
      output_(std::move(output)),
      reno_(config.mss),
      rto_timer_(loop, [this] { OnRtoFired(); }),
      delack_timer_(loop, [this] { OnDelayedAckFired(); }),
      persist_timer_(loop, [this] { OnPersistFired(); }),
      time_wait_timer_(loop, [this] { SetState(TcpState::kClosed); }) {
  iss_ = config_.initial_seq;
  snd_una_ = iss_;
  snd_nxt_ = iss_;
  recover_ = iss_;
}

void TcpConnection::SetState(TcpState s) {
  state_ = s;
  if (s == TcpState::kClosed) {
    rto_timer_.Cancel();
    time_wait_timer_.Cancel();
    if (on_closed_) {
      on_closed_();
    }
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

uint16_t TcpConnection::CurrentWindow() const {
  // In auto-consume mode (the benchmark behaviour) the window stays fully open; in
  // manual-consume mode it tracks free buffer space, with receiver-side silly-window
  // avoidance (RFC 1122 4.2.3.3): never advertise a dribble, advertise zero until at
  // least min(MSS, buffer/2) opens up. With negotiated window scaling the field
  // carries the window right-shifted by our own scale factor (RFC 7323).
  uint32_t avail = config_.recv_window;
  if (!config_.auto_consume) {
    const uint32_t buffered = static_cast<uint32_t>(rcv_buffer_.size());
    avail = buffered >= config_.recv_window ? 0 : config_.recv_window - buffered;
    const uint32_t sws_floor = std::min<uint32_t>(config_.mss, config_.recv_window / 2);
    if (avail < sws_floor) {
      avail = 0;
    }
  }
  const uint8_t shift = window_scaling_active_ ? config_.window_scale : 0;
  return static_cast<uint16_t>(std::min<uint32_t>(avail >> shift, 0xffff));
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

void TcpConnection::SendSynthetic(uint64_t total_bytes) {
  send_stream_.SetSynthetic(total_bytes);
  TrySendData();
}

size_t TcpConnection::Read(std::span<uint8_t> out) {
  TCPRX_CHECK_MSG(!config_.auto_consume, "Read() requires auto_consume = false");
  const uint16_t window_before = CurrentWindow();
  const size_t n = std::min(out.size(), rcv_buffer_.size());
  for (size_t i = 0; i < n; ++i) {
    out[i] = rcv_buffer_.front();
    rcv_buffer_.pop_front();
  }
  // Window-update ACK when reading re-opened a window the peer believes is smaller
  // (in particular after advertising zero).
  if (n > 0 && CurrentWindow() > window_before &&
      (state_ == TcpState::kEstablished || state_ == TcpState::kFinWait1 ||
       state_ == TcpState::kFinWait2)) {
    EmitPureAcks({static_cast<uint32_t>(rcv_nxt_)});
  }
  return n;
}

void TcpConnection::Close() {
  if (fin_queued_) {
    return;
  }
  fin_queued_ = true;
  TrySendData();
}

// ---------------------------------------------------------------------------
// Input path
// ---------------------------------------------------------------------------

void TcpConnection::OnHostPacket(const SkBuff& skb) {
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
  EmitPureAcks({static_cast<uint32_t>(rcv_nxt_)});
  if (on_established_) {
    on_established_();
  }
  TrySendData();
}

void TcpConnection::AdoptPeerSyn(const TcpHeader& h) {
  irs_ = h.seq;
  rcv_nxt_ = irs_ + 1;
  if (h.mss.has_value()) {
    peer_mss_ = *h.mss;
  }
  peer_uses_timestamps_ = h.timestamp.has_value();
  if (h.timestamp.has_value()) {
    ts_recent_ = h.timestamp->value;
  }
  if (h.window_scale.has_value() && config_.window_scale > 0) {
    window_scaling_active_ = true;
    peer_window_scale_ = *h.window_scale;
  }
  peer_sack_ = h.sack_permitted && config_.sack;
  snd_wnd_ = h.window;  // windows in SYN segments are never scaled (RFC 7323)
  snd_wl1_ = irs_;
}

void TcpConnection::ProcessSegmentCommon(const SkBuff& skb) {
  const TcpHeader& h = skb.view().tcp;
  if (h.Has(kTcpRst)) {
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
    EmitPureAcks({static_cast<uint32_t>(rcv_nxt_)});
    return;
  }

  // Timestamp bookkeeping (simplified RFC 7323: remember the timestamp of segments at
  // or before the left window edge). For an aggregated packet the header timestamp is
  // the last fragment's, per the paper's section 3.2.
  if (h.timestamp.has_value() && seg_seq <= rcv_nxt_) {
    ts_recent_ = h.timestamp->value;
  }

  std::vector<uint32_t> pending_acks;
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
    if (skb.fragment_info.empty()) {
      ProcessAckField(Unwrap(h.ack, snd_una_), h.window, seg_seq, payload_len > 0);
    } else {
      uint64_t fseq = seg_seq;
      for (const FragmentInfo& fi : skb.fragment_info) {
        ProcessAckField(Unwrap(fi.ack, snd_una_), fi.window, fseq, fi.payload_len > 0);
        fseq += fi.payload_len;
      }
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
    pending_acks_ = &pending_acks;
    DeliverPayload(skb, seg_seq);
    pending_acks_ = nullptr;
  }

  if (h.Has(kTcpFin)) {
    HandleFin(seg_seq + payload_len);
    // A FIN forces an immediate ACK.
    if (rcv_nxt_ == seg_seq + payload_len + 1) {
      pending_acks.push_back(static_cast<uint32_t>(rcv_nxt_));
      segs_since_ack_ = 0;
    }
  }

  if (!pending_acks.empty()) {
    EmitPureAcks(pending_acks);
  }

  TrySendData();

  if (segs_since_ack_ > 0 && !data_sent_in_pass_) {
    delack_timer_.Arm(kDelayedAckTimeout);
  }
}

void TcpConnection::ProcessAckField(uint64_t ack, uint32_t window, uint64_t seg_seq,
                                    bool has_payload) {
  if (ack > snd_nxt_) {
    return;  // acks data we never sent; ignore
  }
  // The wire window field is scaled when RFC 7323 window scaling was negotiated; all
  // comparisons below are against the scaled value.
  const uint64_t scaled_window = static_cast<uint64_t>(window)
                                 << (window_scaling_active_ ? peer_window_scale_ : 0);
  if (ack > snd_una_) {
    const uint64_t newly = ack - snd_una_;
    snd_una_ = ack;
    // Stream offsets exclude the SYN; the FIN bit (if acked) is clamped off by
    // ReleaseThrough against the stream end.
    if (snd_una_ > iss_ + 1) {
      send_stream_.ReleaseThrough(snd_una_ - (iss_ + 1));
    }
    scoreboard_.ClearBelow(snd_una_);
    rto_backoff_ = 0;
    persist_backoff_ = 0;

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

    if (fin_sent_ && snd_una_ >= fin_seq_ + 1) {
      switch (state_) {
        case TcpState::kFinWait1:
          SetState(TcpState::kFinWait2);
          break;
        case TcpState::kClosing:
          EnterTimeWait();
          break;
        case TcpState::kLastAck:
          SetState(TcpState::kClosed);
          break;
        default:
          break;
      }
    }

    if (snd_una_ == snd_nxt_) {
      rto_timer_.Cancel();
    } else {
      ArmRto();
    }
  } else if (ack == snd_una_) {
    // Duplicate ACK per RFC 5681: no payload, outstanding data, window unchanged.
    if (!has_payload && snd_nxt_ > snd_una_ && scaled_window == snd_wnd_) {
      ++dup_acks_received_;
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

  // RFC 793 window update rule (scaled per RFC 7323 when negotiated).
  if (snd_wl1_ < seg_seq || (snd_wl1_ == seg_seq && snd_wl2_ <= ack)) {
    snd_wnd_ = scaled_window;
    snd_wl1_ = seg_seq;
    snd_wl2_ = ack;
  }
}

void TcpConnection::DeliverPayload(const SkBuff& skb, uint64_t seg_seq) {
  if (skb.fragment_info.empty()) {
    if (skb.view().payload_size > 0) {
      DeliverSegment(skb.head->Payload(), seg_seq);
    }
    return;
  }

  // Aggregated host packet: replay each constituent network segment through the
  // full receive machine, in arrival order (section 3.4.2). Running the complete
  // per-segment logic — duplicate detection, out-of-order buffering, reassembly
  // pops — between fragments is what makes aggregation invisible to the sender:
  // e.g. a retransmitted segment chained onto a hole-filling one must still draw
  // both the hole-fill ACK and the duplicate ACK the unaggregated stack emits.
  uint64_t fseq = seg_seq;
  for (size_t i = 0; i < skb.fragment_info.size(); ++i) {
    const FragmentInfo& fi = skb.fragment_info[i];
    const std::span<const uint8_t> payload =
        i == 0 ? skb.head->Payload() : skb.frags[i - 1]->Payload();
    TCPRX_CHECK_MSG(payload.size() == fi.payload_len,
                    "aggregate fragment metadata disagrees with payload layout");
    if (fi.payload_len > 0) {
      DeliverSegment(payload, fseq);
    }
    fseq += fi.payload_len;
  }
}

void TcpConnection::DeliverSegment(std::span<const uint8_t> payload, uint64_t seg_seq) {
  const uint64_t seg_end = seg_seq + payload.size();
  const uint64_t old_rcv_nxt = rcv_nxt_;

  if (seg_end <= rcv_nxt_) {
    // Entirely duplicate data (a retransmission we already have): ack immediately.
    // The cumulative ACK also covers any odd segment awaiting a delayed ACK.
    ++duplicate_segments_received_;
    pending_acks_->push_back(static_cast<uint32_t>(rcv_nxt_));
    segs_since_ack_ = 0;
    return;
  }

  if (seg_seq > rcv_nxt_) {
    // Out of order: buffer it and send a duplicate ACK, so the sender's
    // fast-retransmit threshold behaves as without aggregation.
    reassembly_.Insert(seg_seq, std::vector<uint8_t>(payload.begin(), payload.end()));
    ++ooo_segments_received_;
    pending_acks_->push_back(static_cast<uint32_t>(rcv_nxt_));
    segs_since_ack_ = 0;  // the dup ACK is cumulative
    return;
  }

  // In-order (possibly overlapping the left edge). In manual-consume mode, trim the
  // segment to the space the advertised window allows (a correct peer never exceeds
  // it; window probes deliberately do).
  uint64_t deliver_end = seg_end;
  if (!config_.auto_consume) {
    const uint64_t window_limit =
        rcv_nxt_ + (config_.recv_window > rcv_buffer_.size()
                        ? config_.recv_window - rcv_buffer_.size()
                        : 0);
    if (deliver_end > window_limit) {
      out_of_window_dropped_bytes_ += deliver_end - window_limit;
      deliver_end = window_limit;
    }
    if (deliver_end <= rcv_nxt_) {
      // Nothing fits (zero window): ack with the current (closed) window so the
      // prober learns the state.
      pending_acks_->push_back(static_cast<uint32_t>(rcv_nxt_));
      segs_since_ack_ = 0;
      return;
    }
  }
  const uint64_t skip = rcv_nxt_ - seg_seq;
  std::span<const uint8_t> usable =
      payload.subspan(static_cast<size_t>(skip),
                      static_cast<size_t>(deliver_end - rcv_nxt_));
  rcv_nxt_ = deliver_end;
  bytes_received_ += deliver_end - old_rcv_nxt;
  const bool was_empty = rcv_buffer_.empty();
  if (config_.auto_consume) {
    if (on_data_ && !usable.empty()) {
      on_data_(usable);
    }
  } else {
    rcv_buffer_.insert(rcv_buffer_.end(), usable.begin(), usable.end());
  }
  if (!config_.auto_consume && was_empty && !rcv_buffer_.empty() && on_readable_) {
    on_readable_();
  }

  // ACK accounting: one ACK per `ack_every` segments (2 with delayed ACKs per
  // RFC 1122, 1 without).
  const uint32_t ack_every = config_.delayed_acks ? 2 : 1;
  ++segs_since_ack_;
  if (segs_since_ack_ >= ack_every) {
    pending_acks_->push_back(static_cast<uint32_t>(rcv_nxt_));
    segs_since_ack_ = 0;
  }

  // A delivery may have closed a reassembly hole.
  if (!reassembly_.Empty()) {
    std::vector<uint8_t> filled;
    const size_t popped = reassembly_.PopInOrder(rcv_nxt_, filled);
    if (popped > 0) {
      rcv_nxt_ += popped;
      bytes_received_ += popped;
      if (config_.auto_consume) {
        if (on_data_) {
          on_data_(filled);
        }
      } else {
        const bool empty_before = rcv_buffer_.empty();
        rcv_buffer_.insert(rcv_buffer_.end(), filled.begin(), filled.end());
        if (empty_before && on_readable_) {
          on_readable_();
        }
      }
      // Filling a hole triggers an immediate ACK (RFC 5681 section 4.2).
      pending_acks_->push_back(static_cast<uint32_t>(rcv_nxt_));
      segs_since_ack_ = 0;
    }
  }
}

void TcpConnection::HandleFin(uint64_t fin_seq) {
  if (fin_seq != rcv_nxt_) {
    return;  // FIN beyond a hole; will be retransmitted
  }
  rcv_nxt_ += 1;
  switch (state_) {
    case TcpState::kEstablished:
      SetState(TcpState::kCloseWait);
      break;
    case TcpState::kFinWait1:
      // Our FIN not yet acked: simultaneous close.
      SetState(TcpState::kClosing);
      break;
    case TcpState::kFinWait2:
      EnterTimeWait();
      break;
    default:
      break;
  }
}

void TcpConnection::EnterTimeWait() {
  rto_timer_.Cancel();
  SetState(TcpState::kTimeWait);
  time_wait_timer_.Arm(kTimeWaitDuration);
}

// ---------------------------------------------------------------------------
// Output path
// ---------------------------------------------------------------------------

std::vector<uint8_t> TcpConnection::BuildSegment(uint32_t seq, uint32_t ack, uint8_t flags,
                                                 std::span<const uint8_t> payload) {
  TcpFrameSpec spec;
  spec.src_mac = config_.local_mac;
  spec.dst_mac = config_.remote_mac;
  spec.src_ip = config_.local_ip;
  spec.dst_ip = config_.remote_ip;
  spec.ip_id = next_ip_id_++;
  spec.payload = payload;
  spec.fill_tcp_checksum = config_.fill_tcp_checksum;

  TcpHeader& h = spec.tcp;
  h.src_port = config_.local_port;
  h.dst_port = config_.remote_port;
  h.seq = seq;
  h.ack = ack;
  h.flags = flags;
  h.window = CurrentWindow();

  const bool syn = (flags & kTcpSyn) != 0;
  const bool want_ts = syn || peer_uses_timestamps_;
  if (syn) {
    // MSS option.
    h.raw_options.push_back(kTcpOptMss);
    h.raw_options.push_back(4);
    h.raw_options.push_back(static_cast<uint8_t>(config_.mss >> 8));
    h.raw_options.push_back(static_cast<uint8_t>(config_.mss & 0xff));
    if (config_.window_scale > 0) {
      h.raw_options.push_back(kTcpOptWindowScale);
      h.raw_options.push_back(3);
      h.raw_options.push_back(config_.window_scale);
    }
    if (config_.sack) {
      h.raw_options.push_back(kTcpOptSackPermitted);
      h.raw_options.push_back(2);
    }
  }
  if (want_ts) {
    uint8_t ts_block[kTcpTimestampOptionSize];
    WriteTimestampOption(TcpTimestampOption{NowTsMs(), ts_recent_}, ts_block);
    h.raw_options.insert(h.raw_options.end(), ts_block, ts_block + kTcpTimestampOptionSize);
  }
  // SACK blocks ride on pure ACKs when the receiver is holding out-of-order data.
  if (peer_sack_ && flags == kTcpAck && payload.empty() && !reassembly_.Empty()) {
    std::vector<SackBlock> blocks;
    for (const auto& [start, end] : reassembly_.SackRanges(3)) {
      blocks.push_back(SackBlock{static_cast<uint32_t>(start), static_cast<uint32_t>(end)});
    }
    AppendSackOption(blocks, h.raw_options);
  }
  // tcprx-check: allow(charge) -- transmit-side serialization; the stack bills the
  // whole tx pass via ChargeTxStackPass when the output item is emitted.
  return BuildTcpFrame(spec);
}

void TcpConnection::EmitSyn(bool with_ack) {
  const uint8_t flags = static_cast<uint8_t>(kTcpSyn | (with_ack ? kTcpAck : 0));
  const uint32_t ack = with_ack ? static_cast<uint32_t>(rcv_nxt_) : 0;
  TcpOutputItem item;
  item.frame = BuildSegment(static_cast<uint32_t>(iss_), ack, flags, {});
  snd_nxt_ = iss_ + 1;
  output_(std::move(item));
  ArmRto();
}

void TcpConnection::EmitPureAcks(const std::vector<uint32_t>& ack_values) {
  TCPRX_CHECK(!ack_values.empty());
  TcpOutputItem item;
  item.frame =
      BuildSegment(static_cast<uint32_t>(snd_nxt_), ack_values.front(), kTcpAck, {});
  item.extra_acks.assign(ack_values.begin() + 1, ack_values.end());
  acks_emitted_ += ack_values.size();
  if (ack_trace_enabled_) {
    ack_trace_.insert(ack_trace_.end(), ack_values.begin(), ack_values.end());
  }
  // NOTE: segs_since_ack_ is deliberately NOT reset here. A batch of boundary ACKs
  // from an aggregated packet may leave a trailing odd segment still owed an ACK;
  // the callers reset the counter exactly where a cumulative ACK covers it.
  delack_timer_.Cancel();
  output_(std::move(item));
}

void TcpConnection::EmitDataSegment(uint64_t seq, uint32_t len, bool fin, bool retransmit) {
  const std::span<const uint8_t> payload =
      len > 0 ? send_stream_.View(seq - (iss_ + 1), len) : std::span<const uint8_t>();
  uint8_t flags = kTcpAck;
  if (len > 0) {
    flags |= kTcpPsh;
  }
  if (fin) {
    flags |= kTcpFin;
  }
  TcpOutputItem item;
  item.frame = BuildSegment(static_cast<uint32_t>(seq), static_cast<uint32_t>(rcv_nxt_), flags,
                            payload);
  item.payload_size = len;
  if (!retransmit && !rtt_probe_armed_) {
    rtt_probe_armed_ = true;
    rtt_probe_seq_ = seq + len + (fin ? 1 : 0);
    rtt_probe_sent_at_ = loop_.Now();
  }
  if (retransmit && rtt_probe_armed_ && seq < rtt_probe_seq_) {
    rtt_probe_armed_ = false;  // Karn: never sample a retransmitted range
  }
  segs_since_ack_ = 0;
  delack_timer_.Cancel();
  data_sent_in_pass_ = true;
  output_(std::move(item));
}

void TcpConnection::TrySendData() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kLastAck) {
    return;
  }
  bool sent = false;
  if (!fin_sent_ || snd_nxt_ < fin_seq_) {
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
      EmitDataSegment(snd_nxt_, len, /*fin=*/false, /*retransmit=*/false);
      snd_nxt_ += len;
      sent = true;
    }
  }

  if (fin_queued_ && !fin_sent_ &&
      send_stream_.AvailableFrom(snd_nxt_ - (iss_ + 1)) == 0) {
    fin_seq_ = snd_nxt_;
    EmitDataSegment(snd_nxt_, 0, /*fin=*/true, /*retransmit=*/false);
    snd_nxt_ += 1;
    fin_sent_ = true;
    sent = true;
    if (state_ == TcpState::kEstablished) {
      SetState(TcpState::kFinWait1);
    } else if (state_ == TcpState::kCloseWait) {
      SetState(TcpState::kLastAck);
    }
  }

  if (sent) {
    ArmRto();
  } else if (snd_wnd_ == 0 && snd_una_ == snd_nxt_ &&
             send_stream_.AvailableFrom(snd_nxt_ - (iss_ + 1)) > 0 &&
             (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait)) {
    // Zero-window deadlock risk: the reopening ACK may never come (it could be
    // lost, and pure ACKs are not retransmitted). Probe periodically (RFC 1122
    // 4.2.2.17).
    ArmPersist();
  }
}

void TcpConnection::ArmPersist() {
  if (persist_timer_.armed()) {
    return;
  }
  SimDuration delay = SimDuration::FromMillis(500);
  for (uint32_t i = 0; i < persist_backoff_ && delay < SimDuration::FromSeconds(60); ++i) {
    delay = SimDuration::FromNanos(delay.nanos() * 2);
  }
  persist_timer_.Arm(delay);
}

void TcpConnection::OnPersistFired() {
  if (snd_wnd_ > 0 || snd_una_ != snd_nxt_) {
    persist_backoff_ = 0;
    TrySendData();
    return;
  }
  if (send_stream_.AvailableFrom(snd_nxt_ - (iss_ + 1)) == 0 ||
      (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait)) {
    return;
  }
  // Send a one-byte window probe beyond the (zero) window. The receiver trims it but
  // answers with its current window; if the window has opened, the ack releases us.
  ++window_probes_sent_;
  ++persist_backoff_;
  EmitDataSegment(snd_nxt_, 1, /*fin=*/false, /*retransmit=*/false);
  snd_nxt_ += 1;
  ArmPersist();
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
  if (fin_sent_ && snd_una_ == fin_seq_) {
    // Only the FIN is outstanding.
    EmitDataSegment(fin_seq_, 0, /*fin=*/true, /*retransmit=*/true);
    ++segments_retransmitted_;
    return;
  }
  const uint64_t outstanding_data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
  // With SACK, aim the retransmission at the first real hole instead of blindly at
  // snd_una (which may already be covered by a sacked range above a filled hole).
  uint64_t base = snd_una_;
  uint64_t hole_end = outstanding_data_end;
  if (peer_sack_) {
    base = scoreboard_.NextUnsackedFrom(snd_una_);
    if (base >= outstanding_data_end) {
      return;  // everything outstanding is sacked; wait for the cumulative ack
    }
    hole_end = scoreboard_.HoleEnd(base, outstanding_data_end);
  }
  const uint32_t len =
      static_cast<uint32_t>(std::min<uint64_t>(hole_end - base, config_.mss));
  if (len == 0) {
    return;
  }
  const bool fin = fin_sent_ && (base + len == fin_seq_) && len < config_.mss;
  if (peer_sack_ && base + len > rtx_high_) {
    rtx_high_ = base + len;
  }
  EmitDataSegment(base, len, fin, /*retransmit=*/true);
  ++segments_retransmitted_;
}

void TcpConnection::SackRetransmit() {
  const uint64_t outstanding_data_end = fin_sent_ ? fin_seq_ : snd_nxt_;
  uint64_t seq = rtx_high_ > snd_una_ ? rtx_high_ : snd_una_;
  seq = scoreboard_.NextUnsackedFrom(seq);
  if (seq >= outstanding_data_end) {
    return;  // no further known holes
  }
  const uint64_t hole_end = scoreboard_.HoleEnd(seq, outstanding_data_end);
  if (hole_end >= outstanding_data_end) {
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
  EmitDataSegment(seq, len, /*fin=*/false, /*retransmit=*/true);
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
  EmitPureAcks({static_cast<uint32_t>(rcv_nxt_)});
}

}  // namespace tcprx
