#include "src/stack/network_stack.h"

#include "src/core/template_ack.h"
#include "src/util/logging.h"

namespace tcprx {

const char* SystemTypeName(SystemType s) {
  switch (s) {
    case SystemType::kNativeUp:
      return "Linux UP";
    case SystemType::kNativeSmp:
      return "Linux SMP";
    case SystemType::kXenGuest:
      return "Xen";
  }
  return "?";
}

NetworkStack::NetworkStack(const StackConfig& config, EventLoop& loop, TransmitFn transmit)
    : config_(config),
      loop_(loop),
      transmit_(std::move(transmit)),
      cache_(config.prefetch),
      charger_(account_, config_.smp()),
      xen_path_(cache_) {
  if (config_.receive_aggregation) {
    aggregator_ = std::make_unique<Aggregator>(
        config_.aggregation_limit, [this](SkBuffPtr skb) {
          if (config_.hardware_lro) {
            ChargeLroHostPacket();
            DeliverHostPacket(std::move(skb));
            return;
          }
          // Per-host-packet aggregation epilogue: the sk_buff allocation that
          // happened in the aggregator, plus — for genuine aggregates — the header
          // rewrite with incremental checksums and the fragment-chain attachment.
          charger_.Charge(Routine::kAllocSkb, kCosts.skb_alloc);
          if (skb->frames.size() > 1) {
            charger_.Charge(Routine::kAggrFlush, kCosts.aggr_flush_per_host_packet);
            charger_.Charge(Routine::kSkbFillPageDesc,
                            (skb->frames.size() - 1) * kCosts.skb_frag_attach);
          }
          DeliverHostPacket(std::move(skb));
        });
    // A frame the host cannot parse is dropped and its buffer freed, as on the
    // baseline path. The optimized path built no sk_buff for it; hardware LRO hands it
    // up as a host packet of its own.
    aggregator_->set_deliver_raw([this](PacketPtr /*frame*/) {
      ++stats_.frames_dropped_unparseable;
      if (config_.hardware_lro) {
        ChargeLroHostPacket();
        charger_.Charge(Routine::kKfreeSkb, kCosts.skb_free + kCosts.pkt_buf_free);
      } else {
        charger_.Charge(Routine::kKfreeSkb, kCosts.pkt_buf_free);
      }
    });
  }
}

void NetworkStack::ChargeLroHostPacket() {
  // The NIC delivered a pre-aggregated packet: the driver and softirq plumbing run
  // once per *host* packet.
  charger_.Charge(Routine::kS2ioLroRx, kCosts.driver_rx_per_packet + kCosts.driver_mac_processing);
  charger_.Charge(Routine::kAllocSkb, kCosts.skb_alloc + kCosts.pkt_buf_alloc);
  charger_.Charge(Routine::kDoSoftirq, kCosts.misc_rx_per_packet);
}

void NetworkStack::AddLocalAddress(Ipv4Address local, int nic_id) {
  ip_.AddLocalAddress(local);
  routes_.AddRoute(local, nic_id);
}

void NetworkStack::AddRoute(Ipv4Address dst, int nic_id) { routes_.AddRoute(dst, nic_id); }

void NetworkStack::ChargeWakeup() {
  charger_.Charge(Routine::kIrqEntry, kCosts.misc_fixed_per_wakeup);
  if (config_.xen()) {
    xen_path_.ChargeWakeup(charger_);
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void NetworkStack::ReceiveFrame(PacketPtr frame) {
  ++stats_.frames_received;

  if (config_.hardware_lro && aggregator_ != nullptr) {
    // Hardware LRO: the coalescing happens on the NIC; nothing is charged per wire
    // packet. Host costs accrue per delivered host packet or dropped frame (see the
    // aggregator's callbacks in the constructor).
    aggregator_->Push(std::move(frame));
    return;
  }

  // Device driver work common to both paths: descriptor handling, ring refill.
  charger_.Charge(Routine::kE1000CleanRxIrq, kCosts.driver_rx_per_packet);
  charger_.Charge(Routine::kE1000AllocRxBuffers, kCosts.pkt_buf_alloc);
  // Scheduling / softirq / timer overhead scales with wire packets, not host packets:
  // the paper's figures show the misc component essentially unchanged by aggregation
  // (Figure 8), so it is charged here, per network packet.
  charger_.Charge(Routine::kDoSoftirq, kCosts.misc_rx_per_packet);
  if (config_.xen()) {
    charger_.Charge(Routine::kXenSchedMisc, kCosts.misc_xen_extra_per_packet);
  }

  if (aggregator_ != nullptr) {
    // Optimized path: the driver drops the *raw* packet into the aggregation queue.
    // No sk_buff yet, no MAC processing in the driver (both move into the
    // aggregation routine; the early demux pays the compulsory header cache miss).
    charger_.Charge(Routine::kAggrEarlyDemux, kCosts.aggr_demux_per_packet);
    charger_.Charge(Routine::kAggrMatch, kCosts.aggr_match_per_packet);
    aggregator_->Push(std::move(frame));
    return;
  }

  // Baseline path: the driver performs MAC processing (compulsory cache miss on the
  // just-DMA'd header) and allocates the sk_buff before netif_rx.
  charger_.Charge(Routine::kEthTypeTrans, kCosts.driver_mac_processing);
  charger_.Charge(Routine::kAllocSkb, kCosts.skb_alloc);
  SkBuffPtr skb = SkBuff::Wrap(std::move(frame));
  if (skb == nullptr) {
    ++stats_.frames_dropped_unparseable;
    charger_.Charge(Routine::kKfreeSkb, kCosts.skb_free + kCosts.pkt_buf_free);
    return;
  }
  DeliverHostPacket(std::move(skb));
}

void NetworkStack::OnReceiveQueueEmpty() {
  if (aggregator_ != nullptr) {
    aggregator_->FlushAll();
  }
}

void NetworkStack::DeliverHostPacket(SkBuffPtr skb) {
  if (host_packet_tap_) {
    host_packet_tap_(*skb);
  }
  auto& counters = account_.counters();
  ++counters.host_packets;
  // Network-level data segments this host packet stands for (for per-packet
  // normalization of the profiles, as in the paper's figures).
  for (const FragmentInfo& fi : skb->fragment_info) {
    if (fi.payload_len > 0) {
      ++counters.net_data_packets;
    }
  }
  if (skb->SegmentCount() > 1) {
    counters.aggregated_segments += skb->SegmentCount();
  }

  // Virtualization path between the driver domain and the guest stack.
  if (config_.xen()) {
    xen_path_.ChargeGuestRx(charger_, *skb);
    charger_.Charge(Routine::kNetifReceiveSkbGuest, kCosts.guest_nonproto_per_packet);
  } else {
    charger_.Charge(Routine::kNetifReceiveSkb, kCosts.nonproto_rx_per_packet);
  }

  // IP layer.
  charger_.Charge(Routine::kIpRcv, kCosts.ip_rx_per_packet);
  const IpVerdict verdict = ip_.Validate(*skb);
  const size_t fragment_frames = skb->frames.size();
  if (verdict != IpVerdict::kAccept) {
    ++stats_.frames_dropped_ip;
    charger_.Charge(Routine::kKfreeSkb, kCosts.skb_free + fragment_frames * kCosts.pkt_buf_free);
    return;
  }

  // Without rx checksum offload (or for a frame the NIC flagged), the stack must
  // verify the TCP checksum in software — a per-byte pass over the segment, exactly
  // the cost the paper's checksum-offload assumption avoids (section 3.1). The head's
  // verdict covers an aggregate: the aggregator chains only NIC-verified frames.
  if (!skb->head().nic_checksum_verified) {
    const size_t segment_bytes = skb->view().tcp.HeaderSize() + skb->PayloadSize();
    charger_.Charge(Routine::kCsumPartial, cache_.ChecksumCycles(segment_bytes));
    if (!VerifyFrameTcpChecksum(skb->head().Bytes(), skb->view())) {
      ++stats_.frames_dropped_bad_checksum;
      charger_.Charge(Routine::kKfreeSkb, kCosts.skb_free + fragment_frames * kCosts.pkt_buf_free);
      return;
    }
  }

  // TCP demux + processing.
  TcpConnection* conn = Demux(*skb);
  if (conn == nullptr) {
    conn = AcceptNew(*skb);
  }
  if (conn == nullptr) {
    ++stats_.frames_dropped_no_connection;
    SendReset(*skb);
    charger_.Charge(Routine::kKfreeSkb, kCosts.skb_free + fragment_frames * kCosts.pkt_buf_free);
    return;
  }

  charger_.Charge(Routine::kTcpV4Rcv, kCosts.tcp_rx_per_packet);
  charger_.Charge(Routine::kTcpRcvEstablished, skb->SegmentCount() * kCosts.tcp_rx_per_segment);
  charger_.ChargeLocks(Routine::kSpinLock, kCosts.tcp_rx_lock_sites);

  conn->OnHostPacket(*skb);

  charger_.Charge(Routine::kKfreeSkb, kCosts.skb_free + fragment_frames * kCosts.pkt_buf_free);
}

void NetworkStack::SendReset(const SkBuff& skb) {
  // RFC 793: a segment that matches no connection is answered with a RST (never in
  // response to another RST). If the offender carried an ACK, the RST takes its ack
  // as our sequence number; otherwise we ACK everything it sent.
  const TcpFrameView& view = skb.view();
  const TcpHeader& in = view.tcp;
  if (in.Has(kTcpRst)) {
    return;
  }
  ++stats_.rsts_sent;

  const TcpFrameTemplate tmpl = MakeTcpFrameTemplate(
      view.eth.dst, view.eth.src, view.ip.dst, view.ip.src, in.dst_port, in.src_port);
  TcpSegmentFields rst;
  if (in.Has(kTcpAck)) {
    rst.seq = in.ack;
    rst.flags = kTcpRst;
  } else {
    rst.seq = 0;
    rst.flags = kTcpRst | kTcpAck;
    rst.ack = in.seq + static_cast<uint32_t>(skb.PayloadSize()) +
              (in.Has(kTcpSyn) ? 1 : 0) + (in.Has(kTcpFin) ? 1 : 0);
  }

  // A RST is a transmit-path packet like any other.
  ChargeTxStackPass(0, /*is_template=*/false);
  charger_.Charge(Routine::kE1000XmitFrame, kCosts.driver_tx_per_packet);
  TransmitBuiltFrame(tmpl.dst_ip, WriteTcpFrame(tmpl, /*ip_id=*/0, rst, {}, {},
                                                config_.fill_tcp_checksums));
}

TcpConnection* NetworkStack::Demux(const SkBuff& skb) {
  TcpConnection* const* conn = demux_.Find(skb.view().flow());
  return conn == nullptr ? nullptr : *conn;
}

TcpConnection* NetworkStack::AcceptNew(const SkBuff& skb) {
  const TcpFrameView& view = skb.view();
  const TcpHeader& h = view.tcp;
  if (!h.Has(kTcpSyn) || h.Has(kTcpAck)) {
    return nullptr;
  }
  auto listener = listeners_.find(h.dst_port);
  if (listener == listeners_.end()) {
    return nullptr;
  }
  TcpConnectionConfig conn_config;
  conn_config.local_ip = view.ip.dst;
  conn_config.remote_ip = view.ip.src;
  conn_config.local_port = h.dst_port;
  conn_config.remote_port = h.src_port;
  conn_config.local_mac = view.eth.dst;
  conn_config.remote_mac = view.eth.src;
  conn_config.delayed_acks = config_.delayed_acks;
  conn_config.sack = config_.sack;
  conn_config.initial_seq = next_iss_;
  next_iss_ += 64000;
  conn_config.fill_tcp_checksum = config_.fill_tcp_checksums;

  TcpConnection* conn = CreateConnection(conn_config);
  conn->Listen();
  ++stats_.connections_accepted;
  listener->second(*conn);
  return conn;
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

TcpConnection* NetworkStack::CreateConnection(const TcpConnectionConfig& config) {
  connections_.push_back(std::make_unique<TcpConnection>(
      config, loop_, [this, dst = config.remote_ip](TcpOutputItem&& item) {
        HandleConnectionOutput(dst, std::move(item));
      }));
  TcpConnection* conn = connections_.back().get();
  conn->set_on_closed([this, conn] {
    // Free the 4-tuple: a later connection may legitimately reuse it. The connection
    // object stays alive so held pointers remain valid.
    TcpConnection* const* mapped = demux_.Find(conn->IncomingFlowKey());
    if (mapped != nullptr && *mapped == conn) {
      demux_.Erase(conn->IncomingFlowKey());
    }
  });
  conn->set_on_delivered([this](size_t bytes) { ChargeCopyToUser(bytes); });
  demux_.InsertOrAssign(conn->IncomingFlowKey(), conn);
  return conn;
}

void NetworkStack::ChargeCopyToUser(size_t bytes) {
  // The kernel-to-application copy: the canonical per-byte operation. Charged per
  // delivery (an in-order segment's new bytes, or a popped run) so an aggregated
  // packet's fragment chain costs the same streamed bytes it would cost unaggregated.
  charger_.Charge(Routine::kCopyToUser, cache_.CopyCycles(bytes));
  account_.counters().payload_bytes += bytes;
}

void NetworkStack::Listen(uint16_t port, AcceptFn on_accept) {
  listeners_[port] = std::move(on_accept);
}

// ---------------------------------------------------------------------------
// Transmit path
// ---------------------------------------------------------------------------

void NetworkStack::ChargeTxStackPass(size_t payload_size, bool is_template) {
  charger_.Charge(Routine::kTcpSendAck, kCosts.tcp_tx_per_ack);
  charger_.Charge(Routine::kIpQueueXmit, kCosts.ip_tx_per_packet);
  if (is_template) {
    charger_.Charge(Routine::kTcpBuildAckTemplate, kCosts.ack_template_build_extra);
  }
  charger_.ChargeLocks(Routine::kSpinLockTx, kCosts.tcp_tx_lock_sites);
  charger_.Charge(Routine::kDevQueueXmit, kCosts.nonproto_tx_per_packet);
  charger_.Charge(Routine::kAllocSkbTx,
                  kCosts.skb_alloc + kCosts.skb_free + kCosts.pkt_buf_alloc + kCosts.pkt_buf_free);
  if (payload_size > 0) {
    // Application-to-kernel copy on the send side.
    charger_.Charge(Routine::kCopyFromUser, cache_.CopyCycles(payload_size));
  }
  if (config_.xen()) {
    xen_path_.ChargeGuestTx(charger_);
  }
}

void NetworkStack::HandleConnectionOutput(Ipv4Address dst, TcpOutputItem&& item) {
  auto& counters = account_.counters();
  const size_t n_acks = 1 + item.extra_acks.size();

  if (IsPureAck(item)) {
    counters.acks_generated += n_acks;
  }

  if (config_.ack_offload && n_acks > 1) {
    // Acknowledgment Offload: one template traverses the stack; the driver expands it
    // into the individual ACK packets (section 4).
    ++counters.ack_templates;
    ChargeTxStackPass(0, /*is_template=*/true);
    charger_.Charge(Routine::kDriverExpandTemplateAck,
                    n_acks * (kCosts.ack_expand_per_ack + kCosts.driver_tx_per_packet));
  } else {
    // Baseline: every packet (each ACK of a run included) takes a full stack pass.
    for (size_t i = 0; i < n_acks; ++i) {
      ChargeTxStackPass(i == 0 ? item.payload_size : 0, /*is_template=*/false);
      charger_.Charge(Routine::kE1000XmitFrame, kCosts.driver_tx_per_packet);
    }
  }

  // Either way the wire carries every ACK of a run, byte-identical to what the TCP
  // layer would have emitted for each ACK individually.
  ExpandTemplateAck(std::move(item), [this, dst](std::vector<uint8_t>&& frame) {
    TransmitBuiltFrame(dst, std::move(frame));
  });
}

void NetworkStack::TransmitBuiltFrame(Ipv4Address dst, std::vector<uint8_t>&& frame) {
  const int nic = routes_.Lookup(dst);
  TCPRX_CHECK_MSG(nic >= 0, "no route for destination");
  if (in_driver_batch_) {
    staged_tx_.emplace_back(nic, std::move(frame));
  } else {
    transmit_(nic, std::move(frame));
  }
}

void NetworkStack::BeginDriverBatch() { in_driver_batch_ = true; }

void NetworkStack::FlushDriverBatch(SimTime done) {
  HeldBatch held;
  HoldDriverBatch(done, held);
  if (held.batch != nullptr) {
    loop_.QueueAt(held.slot, *held.batch);
  }
}

void NetworkStack::HoldDriverBatch(SimTime done, HeldBatch& held) {
  in_driver_batch_ = false;
  if (staged_tx_.empty()) {
    held.batch = nullptr;
    return;
  }
  if (free_tx_batches_.empty()) {
    tx_batches_.push_back(std::make_unique<TxBatch>(*this));
    free_tx_batches_.push_back(tx_batches_.back().get());
  }
  TxBatch& batch = *free_tx_batches_.back();
  free_tx_batches_.pop_back();
  batch.frames.swap(staged_tx_);
  held.batch = &batch;
  held.slot = loop_.Reserve(done);
}

void NetworkStack::TxBatch::Fire(EventLoop::Slot /*slot*/) {
  for (auto& [nic, frame] : frames) {
    stack.transmit_(nic, std::move(frame));
  }
  frames.clear();
  stack.free_tx_batches_.push_back(this);
}

}  // namespace tcprx
