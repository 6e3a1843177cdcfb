// TCP connection state machine.
//
// A full (if compact) TCP endpoint: three-way handshake, sliding-window data transfer
// with Reno congestion control, delayed ACKs, out-of-order reassembly, fast
// retransmit/recovery, RTO with exponential backoff, timestamps, and FIN teardown.
//
// Two aspects exist specifically to support the paper's optimizations:
//
//  * Aggregated host packets (SkBuffs with fragment_info) are processed per-fragment
//    where the protocol demands per-segment granularity: the piggybacked ACK of every
//    fragment drives congestion control individually, and ACK generation counts
//    fragments, not host packets (section 3.4). Everything else is done once per host
//    packet, which is where the CPU savings come from.
//
//  * When one receive pass owes several ACKs, the connection reports them as a single
//    batch (first ACK fully built + the remaining ack numbers). The surrounding stack
//    either materializes each ACK (baseline) or forwards the batch as a template ACK
//    for the driver to expand (Acknowledgment Offload, section 4).
//
// The connection deliberately contains no cost accounting: cycle charging happens in
// the stack layers around it, so the same protocol code serves both the host under
// test and the zero-cost traffic-generator peers.

#ifndef SRC_TCP_TCP_CONNECTION_H_
#define SRC_TCP_TCP_CONNECTION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/buffer/skbuff.h"
#include "src/tcp/congestion.h"
#include "src/tcp/reassembly.h"
#include "src/tcp/rtt.h"
#include "src/tcp/sack.h"
#include "src/tcp/send_stream.h"
#include "src/tcp/tcp_types.h"
#include "src/util/event_loop.h"
#include "src/wire/frame.h"

namespace tcprx {

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

const char* TcpStateName(TcpState s);

struct TcpConnectionConfig {
  Ipv4Address local_ip;
  Ipv4Address remote_ip;
  uint16_t local_port = 0;
  uint16_t remote_port = 0;
  MacAddress local_mac;
  MacAddress remote_mac;
  uint32_t mss = static_cast<uint32_t>(kMssWithTimestamps);
  uint32_t recv_window = 65535;
  uint32_t initial_seq = 10000;
  bool delayed_acks = true;  // ACK every second full segment (RFC 1122)
  // RFC 7323 window scaling: the shift this endpoint advertises on its SYN (0 =
  // option not sent). Effective only when both sides negotiate it. Allows receive
  // windows above 64 KiB (recv_window may then exceed 65535).
  uint8_t window_scale = 0;
  // RFC 2018 selective acknowledgments. Off by default (the paper's receive-path
  // experiments predate widespread SACK deployment); when both endpoints enable it,
  // the receiver reports reassembly holes in dup ACKs and the sender retransmits
  // into actual holes. SACK-bearing segments always bypass Receive Aggregation.
  bool sack = false;
  // When true (default, the benchmark behaviour) delivered data goes straight to the
  // on_data callback and the advertised window never closes. When false, delivered
  // data accumulates in an internal receive buffer the application drains with
  // Read(); the advertised window tracks free buffer space (with receiver-side SWS
  // avoidance), out-of-window data is trimmed, and a stalled application exerts real
  // backpressure on the sender.
  bool auto_consume = true;
  // When false the TCP checksum of transmitted frames is left zero, modelling tx
  // checksum offload; the simulated NICs then fill/verify it implicitly.
  bool fill_tcp_checksum = true;
};

// One unit of transmission handed to the stack. `extra_acks` is non-empty only for a
// batch of consecutive pure ACKs: `frame` is the first ACK of the run and each entry
// in `extra_acks` names the ack number of a follow-up ACK that is otherwise identical
// (the precondition for Acknowledgment Offload). Such an item is the template ACK of
// section 4.2; ExpandTemplateAck (src/core/template_ack.h) turns any item into the
// frames it stands for.
struct TcpOutputItem {
  std::vector<uint8_t> frame;
  std::vector<uint32_t> extra_acks;
  size_t payload_size = 0;  // TCP payload bytes in `frame`
};

class TcpConnection {
 public:
  using OutputFn = std::function<void(TcpOutputItem)>;
  using DataFn = std::function<void(std::span<const uint8_t>)>;

  TcpConnection(const TcpConnectionConfig& config, EventLoop& loop, OutputFn output);

  // ---- Application interface ----------------------------------------------------

  // Active open: emits a SYN.
  void Connect();
  // Passive open: waits for a SYN.
  void Listen();

  // Appends application data and tries to transmit. SendSynthetic arms a synthetic
  // source of `total_bytes` pattern bytes instead (see SendStream).
  void Send(std::span<const uint8_t> data);
  void SendSynthetic(uint64_t total_bytes);

  // Graceful close: FIN is sent once all queued data has been transmitted.
  void Close();

  // Manual-consume mode (auto_consume = false): reads up to out.size() buffered
  // bytes, returns the count, and re-opens the advertised window as space frees up.
  size_t Read(std::span<uint8_t> out);
  size_t ReceiveBufferedBytes() const { return rcv_buffer_.size(); }
  // Invoked when the receive buffer transitions from empty to non-empty.
  void set_on_readable(std::function<void()> fn) { on_readable_ = std::move(fn); }

  // Delivered-in-order payload callback.
  void set_on_data(DataFn fn) { on_data_ = std::move(fn); }
  void set_on_established(std::function<void()> fn) { on_established_ = std::move(fn); }
  void set_on_closed(std::function<void()> fn) { on_closed_ = std::move(fn); }

  // ---- Stack interface ------------------------------------------------------------

  // Processes one host packet (possibly aggregated). This is the only input path.
  void OnHostPacket(const SkBuff& skb);

  // Re-evaluates whether more data can be sent (used after window/cwnd changes made
  // outside OnHostPacket, e.g. by the application).
  void TrySendData();

  // ---- Introspection ----------------------------------------------------------------

  TcpState state() const { return state_; }
  const TcpConnectionConfig& config() const { return config_; }
  FlowKey IncomingFlowKey() const {
    return FlowKey{config_.remote_ip, config_.local_ip, config_.remote_port, config_.local_port};
  }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t bytes_acked() const { return snd_una_ > iss_ + 1 ? snd_una_ - (iss_ + 1) : 0; }
  uint64_t segments_retransmitted() const { return segments_retransmitted_; }
  uint64_t acks_emitted() const { return acks_emitted_; }
  uint64_t dup_acks_received() const { return dup_acks_received_; }
  uint64_t duplicate_segments_received() const { return duplicate_segments_received_; }
  uint64_t paws_rejected() const { return paws_rejected_; }
  uint64_t out_of_window_dropped_bytes() const { return out_of_window_dropped_bytes_; }
  uint64_t window_probes_sent() const { return window_probes_sent_; }
  bool sack_active() const { return peer_sack_; }
  const SackScoreboard& scoreboard() const { return scoreboard_; }
  uint8_t peer_window_scale() const { return peer_window_scale_; }
  bool window_scaling_active() const { return window_scaling_active_; }
  uint64_t ooo_segments_received() const { return ooo_segments_received_; }
  uint64_t rto_events() const { return rto_events_; }
  RenoController& congestion() { return reno_; }
  const RenoController& congestion() const { return reno_; }
  const RttEstimator& rtt() const { return rtt_; }
  uint32_t rcv_nxt_wire() const { return static_cast<uint32_t>(rcv_nxt_); }
  // Oracle hook for the differential fuzzer: record the ack number of every pure
  // ACK this connection emits (batched runs flattened), in emission order.
  void EnableAckTrace() { ack_trace_enabled_ = true; }
  const std::vector<uint32_t>& ack_trace() const { return ack_trace_; }
  uint64_t snd_nxt_ext() const { return snd_nxt_; }
  uint64_t snd_una_ext() const { return snd_una_; }
  uint64_t rcv_nxt_ext() const { return rcv_nxt_; }

 private:
  // --- segment processing helpers ---
  struct SegmentMeta {
    uint64_t seq;         // extended
    uint64_t ack;         // extended (valid when ACK flag set)
    uint32_t payload_len;
    uint16_t window;
    uint8_t flags;
  };

  void ProcessListen(const SkBuff& skb);
  void ProcessSynSent(const SkBuff& skb);
  // Takes the peer's initial sequence number, initial window and negotiated options
  // (MSS, timestamps, window scale, SACK-permitted) from its SYN or SYN-ACK.
  void AdoptPeerSyn(const TcpHeader& h);
  void ProcessSegmentCommon(const SkBuff& skb);
  void ProcessAckField(uint64_t ack, uint32_t window, uint64_t seg_seq, bool has_payload);
  void DeliverPayload(const SkBuff& skb, uint64_t seg_seq);
  // One network segment through the receive machine: duplicate / out-of-order /
  // in-order handling, ACK accounting, reassembly pops. Aggregated host packets
  // replay each fragment through this individually (section 3.4.2).
  void DeliverSegment(std::span<const uint8_t> payload, uint64_t seg_seq);
  void HandleFin(uint64_t fin_seq);

  // --- output helpers ---
  void EmitSyn(bool with_ack);
  void EmitPureAcks(const std::vector<uint32_t>& ack_values);
  void EmitDataSegment(uint64_t seq, uint32_t len, bool fin, bool retransmit);
  std::vector<uint8_t> BuildSegment(uint32_t seq, uint32_t ack, uint8_t flags,
                                    std::span<const uint8_t> payload);
  uint16_t CurrentWindow() const;
  uint32_t NowTsMs() const;

  // --- timers ---
  void ArmRto();
  void OnRtoFired();
  void OnDelayedAckFired();
  void ArmPersist();
  void OnPersistFired();
  void EnterTimeWait();

  void RetransmitHead();
  // During SACK recovery: retransmits the next un-retransmitted hole (one per
  // incoming dup/partial ACK, RFC 6675-style pacing).
  void SackRetransmit();
  void SetState(TcpState s);
  uint64_t Unwrap(uint32_t wire, uint64_t reference) const;

  TcpConnectionConfig config_;
  EventLoop& loop_;
  OutputFn output_;
  DataFn on_data_;
  std::function<void()> on_established_;
  std::function<void()> on_closed_;

  TcpState state_ = TcpState::kClosed;

  // Send side (extended sequence space; low 32 bits go on the wire).
  uint64_t iss_ = 0;
  uint64_t snd_una_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t snd_wnd_ = 0;
  uint64_t snd_wl1_ = 0;  // seg seq of last window update
  uint64_t snd_wl2_ = 0;  // seg ack of last window update
  uint64_t recover_ = 0;  // recovery point for NewReno-style partial-ack handling
  SendStream send_stream_;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  uint64_t fin_seq_ = 0;

  // Receive side.
  uint64_t irs_ = 0;
  uint64_t rcv_nxt_ = 0;
  ReassemblyQueue reassembly_;
  uint32_t peer_mss_ = 536;
  bool peer_uses_timestamps_ = false;
  uint32_t ts_recent_ = 0;
  uint8_t peer_window_scale_ = 0;
  bool window_scaling_active_ = false;
  uint64_t paws_rejected_ = 0;
  bool peer_sack_ = false;
  SackScoreboard scoreboard_;
  uint64_t rtx_high_ = 0;  // highest sequence retransmitted in this recovery episode

  // Manual-consume receive buffer and flow-control state.
  std::deque<uint8_t> rcv_buffer_;
  std::function<void()> on_readable_;
  uint16_t last_advertised_window_ = 0;
  uint64_t out_of_window_dropped_bytes_ = 0;
  uint32_t persist_backoff_ = 0;
  uint64_t window_probes_sent_ = 0;

  RenoController reno_;
  RttEstimator rtt_;
  uint32_t rto_backoff_ = 0;

  // ACK bookkeeping. `pending_acks_` points to the per-pass batch being assembled
  // while DeliverPayload runs.
  uint32_t segs_since_ack_ = 0;
  std::vector<uint32_t>* pending_acks_ = nullptr;
  bool data_sent_in_pass_ = false;
  // TCP timers. SetState(kClosed) cancels the RTO and TIME_WAIT ones.
  EventLoop::Timer rto_timer_;
  EventLoop::Timer delack_timer_;
  EventLoop::Timer persist_timer_;
  EventLoop::Timer time_wait_timer_;

  // Karn-style single-sample RTT probe.
  bool rtt_probe_armed_ = false;
  uint64_t rtt_probe_seq_ = 0;
  SimTime rtt_probe_sent_at_;

  bool ack_trace_enabled_ = false;
  std::vector<uint32_t> ack_trace_;

  uint16_t next_ip_id_ = 1;
  uint64_t bytes_received_ = 0;
  uint64_t segments_retransmitted_ = 0;
  uint64_t acks_emitted_ = 0;
  uint64_t dup_acks_received_ = 0;
  uint64_t duplicate_segments_received_ = 0;
  uint64_t ooo_segments_received_ = 0;
  uint64_t rto_events_ = 0;
};

}  // namespace tcprx

#endif  // SRC_TCP_TCP_CONNECTION_H_
