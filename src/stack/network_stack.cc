#include "src/stack/network_stack.h"

#include "src/core/template_ack.h"
#include "src/util/byte_order.h"
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
      cache_(config.cache, config.prefetch),
      charger_(config_.costs, account_, config_.smp()),
      xen_path_(config_.costs, cache_) {
  if (config_.receive_aggregation) {
    AggregatorConfig aggr_config;
    aggr_config.aggregation_limit = config_.aggregation_limit;
    aggregator_ = std::make_unique<Aggregator>(
        aggr_config, [this](SkBuffPtr skb) {
          const CostParams& costs = config_.costs;
          if (config_.hardware_lro) {
            // The NIC delivered a pre-aggregated packet: the driver and softirq
            // plumbing run once per *host* packet.
            charger_.Charge(CostCategory::kDriver,
                            costs.driver_rx_per_packet + costs.driver_mac_processing,
                            "s2io_lro_rx");
            charger_.Charge(CostCategory::kBuffer,
                            costs.skb_alloc + costs.pkt_buf_alloc, "__alloc_skb");
            charger_.Charge(CostCategory::kMisc, costs.misc_rx_per_packet, "__do_softirq");
            DeliverHostPacket(std::move(skb));
            return;
          }
          // Per-host-packet aggregation epilogue: the sk_buff allocation that
          // happened in the aggregator, plus — for genuine aggregates — the header
          // rewrite with incremental checksums and the fragment-chain attachment.
          charger_.Charge(CostCategory::kBuffer, costs.skb_alloc, "__alloc_skb");
          if (!skb->fragment_info.empty()) {
            charger_.Charge(CostCategory::kAggr, costs.aggr_flush_per_host_packet, "aggr_flush");
            charger_.Charge(CostCategory::kBuffer,
                            skb->frags.size() * costs.skb_frag_attach,
                            "skb_fill_page_desc");
          }
          DeliverHostPacket(std::move(skb));
        });
  }
}

void NetworkStack::AddLocalAddress(Ipv4Address local, int nic_id) {
  ip_.AddLocalAddress(local);
  routes_.AddRoute(local, nic_id);
}

void NetworkStack::AddRoute(Ipv4Address dst, int nic_id) { routes_.AddRoute(dst, nic_id); }

void NetworkStack::ChargeWakeup() {
  charger_.Charge(CostCategory::kMisc, config_.costs.misc_fixed_per_wakeup, "irq_entry");
  if (config_.xen()) {
    xen_path_.ChargeWakeup(charger_);
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void NetworkStack::ReceiveFrame(PacketPtr frame) {
  ++stats_.frames_received;
  const CostParams& costs = config_.costs;

  if (config_.hardware_lro && aggregator_ != nullptr) {
    // Hardware LRO: the coalescing happens on the NIC; nothing is charged per wire
    // packet. Host costs accrue per delivered host packet (see the aggregator
    // callback in the constructor).
    aggregator_->Push(std::move(frame));
    return;
  }

  // Device driver work common to both paths: descriptor handling, ring refill.
  charger_.Charge(CostCategory::kDriver, costs.driver_rx_per_packet, "e1000_clean_rx_irq");
  charger_.Charge(CostCategory::kBuffer, costs.pkt_buf_alloc, "e1000_alloc_rx_buffers");
  // Scheduling / softirq / timer overhead scales with wire packets, not host packets:
  // the paper's figures show the misc component essentially unchanged by aggregation
  // (Figure 8), so it is charged here, per network packet.
  charger_.Charge(CostCategory::kMisc, costs.misc_rx_per_packet, "__do_softirq");
  if (config_.xen()) {
    charger_.Charge(CostCategory::kMisc, costs.misc_xen_extra_per_packet, "xen_sched_misc");
  }

  if (aggregator_ != nullptr) {
    // Optimized path: the driver drops the *raw* packet into the aggregation queue.
    // No sk_buff yet, no MAC processing in the driver (both move into the
    // aggregation routine; the early demux pays the compulsory header cache miss).
    charger_.Charge(CostCategory::kAggr, costs.aggr_demux_per_packet, "aggr_early_demux");
    charger_.Charge(CostCategory::kAggr, costs.aggr_match_per_packet, "aggr_match");
    aggregator_->Push(std::move(frame));
    return;
  }

  // Baseline path: the driver performs MAC processing (compulsory cache miss on the
  // just-DMA'd header) and allocates the sk_buff before netif_rx.
  charger_.Charge(CostCategory::kDriver, costs.driver_mac_processing, "eth_type_trans");
  charger_.Charge(CostCategory::kBuffer, costs.skb_alloc, "__alloc_skb");
  SkBuffPtr skb = SkBuff::Wrap(std::move(frame));
  if (skb == nullptr) {
    ++stats_.frames_dropped_unparseable;
    charger_.Charge(CostCategory::kBuffer, costs.skb_free + costs.pkt_buf_free, "kfree_skb");
    return;
  }
  DeliverHostPacket(std::move(skb));
}

void NetworkStack::OnReceiveQueueEmpty() {
  if (config_.debug_skip_idle_flush) {
    return;  // mutation: violate work conservation; see StackConfig
  }
  if (aggregator_ != nullptr) {
    aggregator_->FlushAll();
  }
}

void NetworkStack::DeliverHostPacket(SkBuffPtr skb) {
  if (host_packet_tap_) {
    host_packet_tap_(*skb);
  }
  const CostParams& costs = config_.costs;
  auto& counters = account_.counters();
  ++counters.host_packets;
  // Network-level data segments this host packet stands for (for per-packet
  // normalization of the profiles, as in the paper's figures).
  if (skb->fragment_info.empty()) {
    if (skb->view().payload_size > 0) {
      ++counters.net_data_packets;
    }
  } else {
    for (const FragmentInfo& fi : skb->fragment_info) {
      if (fi.payload_len > 0) {
        ++counters.net_data_packets;
      }
    }
    if (skb->fragment_info.size() > 1) {
      counters.aggregated_segments += skb->fragment_info.size();
    }
  }

  // Virtualization path between the driver domain and the guest stack.
  if (config_.xen()) {
    xen_path_.ChargeGuestRx(charger_, *skb);
    charger_.Charge(CostCategory::kNonProto, costs.guest_nonproto_per_packet,
                    "netif_receive_skb(guest)");
  } else {
    charger_.Charge(CostCategory::kNonProto, costs.nonproto_rx_per_packet,
                    "netif_receive_skb");
  }

  // IP layer.
  charger_.Charge(CostCategory::kRx, costs.ip_rx_per_packet, "ip_rcv");
  const IpVerdict verdict = ip_.ValidateAndCount(*skb);
  const size_t fragment_frames = 1 + skb->frags.size();
  if (verdict != IpVerdict::kAccept) {
    ++stats_.frames_dropped_ip;
    charger_.Charge(CostCategory::kBuffer,
                    costs.skb_free + fragment_frames * costs.pkt_buf_free, "kfree_skb");
    return;
  }

  // Without rx checksum offload (or for a frame the NIC flagged), the stack must
  // verify the TCP checksum in software — a per-byte pass over the segment, exactly
  // the cost the paper's checksum-offload assumption avoids (section 3.1).
  if (!skb->csum_verified) {
    const size_t segment_bytes = skb->view().tcp.HeaderSize() + skb->PayloadSize();
    charger_.Charge(CostCategory::kPerByte, cache_.ChecksumCycles(segment_bytes),
                    "csum_partial");
    if (!VerifyHostPacketChecksum(*skb)) {
      ++stats_.frames_dropped_bad_checksum;
      charger_.Charge(CostCategory::kBuffer,
                      costs.skb_free + fragment_frames * costs.pkt_buf_free);
      return;
    }
    skb->csum_verified = true;
  }

  // TCP demux + processing.
  TcpConnection* conn = Demux(*skb);
  if (conn == nullptr) {
    conn = AcceptNew(*skb);
  }
  if (conn == nullptr) {
    ++stats_.frames_dropped_no_connection;
    SendReset(*skb);
    charger_.Charge(CostCategory::kBuffer,
                    costs.skb_free + fragment_frames * costs.pkt_buf_free, "kfree_skb");
    return;
  }

  charger_.Charge(CostCategory::kRx, costs.tcp_rx_per_packet, "tcp_v4_rcv");
  charger_.Charge(CostCategory::kRx, skb->SegmentCount() * costs.tcp_rx_per_segment,
                  "tcp_rcv_established");
  charger_.ChargeLocks(CostCategory::kRx, costs.tcp_rx_lock_sites);

  if (config_.debug_coalesce_fragment_acks) {
    // Mutation: present the aggregate as one opaque segment, losing the
    // per-fragment ACK replay the paper's section 3.4 equivalence depends on.
    skb->fragment_info.clear();
  }
  conn->OnHostPacket(*skb);

  charger_.Charge(CostCategory::kBuffer,
                  costs.skb_free + fragment_frames * costs.pkt_buf_free, "kfree_skb");
}

bool NetworkStack::VerifyHostPacketChecksum(const SkBuff& skb) const {
  // Only single-frame host packets reach this path: aggregates are built exclusively
  // from NIC-verified frames (kNoNicChecksum bypass), so their fragments never need
  // software verification.
  if (!skb.frags.empty()) {
    return true;
  }
  const TcpFrameView& view = skb.view();
  const uint16_t wire_csum = LoadBe16(skb.head->Bytes().data() + view.tcp_offset + 16);
  if (wire_csum == 0) {
    return true;  // tx checksum offload on the sender side: field not filled in sim
  }
  const size_t seg_len = view.ip.total_length - view.ip.HeaderSize();
  // tcprx-check: allow(charge) -- the per-byte cost is billed by the caller, which
  // charges cache_.ChecksumCycles(segment_bytes) ("csum_partial") for this verify.
  return VerifyTcpChecksum(view.ip.src, view.ip.dst,
                           skb.head->Bytes().subspan(view.tcp_offset, seg_len));
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

  TcpFrameSpec spec;
  spec.src_mac = view.eth.dst;
  spec.dst_mac = view.eth.src;
  spec.src_ip = view.ip.dst;
  spec.dst_ip = view.ip.src;
  spec.fill_tcp_checksum = config_.fill_tcp_checksums;
  spec.tcp.src_port = in.dst_port;
  spec.tcp.dst_port = in.src_port;
  if (in.Has(kTcpAck)) {
    spec.tcp.seq = in.ack;
    spec.tcp.flags = kTcpRst;
  } else {
    spec.tcp.seq = 0;
    spec.tcp.flags = kTcpRst | kTcpAck;
    spec.tcp.ack = in.seq + static_cast<uint32_t>(skb.PayloadSize()) +
                   (in.Has(kTcpSyn) ? 1 : 0) + (in.Has(kTcpFin) ? 1 : 0);
  }

  // A RST is a transmit-path packet like any other.
  ChargeTxStackPass(0, /*is_template=*/false);
  charger_.Charge(CostCategory::kDriver, config_.costs.driver_tx_per_packet);
  TransmitBuiltFrame(spec.dst_ip, BuildTcpFrame(spec));
}

TcpConnection* NetworkStack::Demux(const SkBuff& skb) {
  const TcpFrameView& view = skb.view();
  const FlowKey key{view.ip.src, view.ip.dst, view.tcp.src_port, view.tcp.dst_port};
  auto it = demux_.find(key);
  return it == demux_.end() ? nullptr : it->second;
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
  conn_config.recv_window = config_.recv_window;
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
  auto entry = std::make_unique<ConnectionEntry>();
  ConnectionEntry* raw_entry = entry.get();
  entry->conn = std::make_unique<TcpConnection>(
      config, loop_, [this, raw_entry](TcpOutputItem item) {
        HandleConnectionOutput(*raw_entry->conn, std::move(item));
      });
  TcpConnection* conn = entry->conn.get();
  WireConnection(*entry);
  demux_[conn->IncomingFlowKey()] = conn;
  connections_.push_back(std::move(entry));
  return conn;
}

void NetworkStack::WireConnection(ConnectionEntry& entry) {
  TcpConnection* conn = entry.conn.get();
  ConnectionEntry* raw_entry = &entry;
  conn->set_on_closed([this, conn, raw_entry] {
    // Free the 4-tuple: a later connection may legitimately reuse it. The entry (and
    // the connection object) stay alive so held pointers remain valid.
    auto it = demux_.find(conn->IncomingFlowKey());
    if (it != demux_.end() && it->second == conn) {
      demux_.erase(it);
    }
    if (raw_entry->app_on_closed) {
      raw_entry->app_on_closed();
    }
  });
  conn->set_on_data([this, raw_entry](std::span<const uint8_t> data) {
    // The kernel-to-application copy: the canonical per-byte operation. Charged per
    // delivered span so an aggregated packet's fragment chain costs the same streamed
    // bytes it would cost unaggregated.
    charger_.Charge(CostCategory::kPerByte, cache_.CopyCycles(data.size()),
                    "copy_to_user");
    account_.counters().payload_bytes += data.size();
    if (raw_entry->app_on_data) {
      raw_entry->app_on_data(data);
    }
  });
}

NetworkStack::ConnectionEntry& NetworkStack::EntryFor(TcpConnection& conn) {
  for (auto& entry : connections_) {
    if (entry->conn.get() == &conn) {
      return *entry;
    }
  }
  TCPRX_CHECK_MSG(false, "connection not owned by this stack");
  __builtin_unreachable();
}

void NetworkStack::SetConnectionDataHandler(TcpConnection& conn, TcpConnection::DataFn fn) {
  EntryFor(conn).app_on_data = std::move(fn);
}

void NetworkStack::SetConnectionClosedHandler(TcpConnection& conn, std::function<void()> fn) {
  EntryFor(conn).app_on_closed = std::move(fn);
}

void NetworkStack::Listen(uint16_t port, AcceptFn on_accept) {
  listeners_[port] = std::move(on_accept);
}

// ---------------------------------------------------------------------------
// Transmit path
// ---------------------------------------------------------------------------

void NetworkStack::ChargeTxStackPass(size_t payload_size, bool is_template) {
  const CostParams& costs = config_.costs;
  charger_.Charge(CostCategory::kTx, costs.tcp_tx_per_ack, "tcp_send_ack");
  charger_.Charge(CostCategory::kTx, costs.ip_tx_per_packet, "ip_queue_xmit");
  if (is_template) {
    charger_.Charge(CostCategory::kTx, costs.ack_template_build_extra,
                    "tcp_build_ack_template");
  }
  charger_.ChargeLocks(CostCategory::kTx, costs.tcp_tx_lock_sites);
  charger_.Charge(CostCategory::kNonProto, costs.nonproto_tx_per_packet,
                  "dev_queue_xmit");
  charger_.Charge(CostCategory::kBuffer,
                  costs.skb_alloc + costs.skb_free + costs.pkt_buf_alloc + costs.pkt_buf_free,
                  "__alloc_skb(tx)");
  if (payload_size > 0) {
    // Application-to-kernel copy on the send side.
    charger_.Charge(CostCategory::kPerByte, cache_.CopyCycles(payload_size));
  }
  if (config_.xen()) {
    xen_path_.ChargeGuestTx(charger_);
  }
}

void NetworkStack::HandleConnectionOutput(TcpConnection& conn, TcpOutputItem item) {
  const CostParams& costs = config_.costs;
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
    charger_.Charge(CostCategory::kDriver,
                    n_acks * (costs.ack_expand_per_ack + costs.driver_tx_per_packet),
                    "driver_expand_template_ack");
  } else {
    // Baseline: every packet (each ACK of a run included) takes a full stack pass.
    for (size_t i = 0; i < n_acks; ++i) {
      ChargeTxStackPass(i == 0 ? item.payload_size : 0, /*is_template=*/false);
      charger_.Charge(CostCategory::kDriver, costs.driver_tx_per_packet, "e1000_xmit_frame");
    }
  }

  // Either way the wire carries every ACK of a run, byte-identical to what the TCP
  // layer would have emitted for each ACK individually.
  const Ipv4Address dst = conn.config().remote_ip;
  ExpandTemplateAck(std::move(item), [this, dst](std::vector<uint8_t> frame) {
    TransmitBuiltFrame(dst, std::move(frame));
  });
}

void NetworkStack::TransmitBuiltFrame(Ipv4Address dst, std::vector<uint8_t> frame) {
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
  in_driver_batch_ = false;
  if (staged_tx_.empty()) {
    return;
  }
  auto staged = std::make_shared<std::vector<std::pair<int, std::vector<uint8_t>>>>(
      std::move(staged_tx_));
  staged_tx_.clear();
  loop_.ScheduleAt(done, [this, staged] {
    for (auto& [nic, frame] : *staged) {
      transmit_(nic, std::move(frame));
    }
  });
}

}  // namespace tcprx
