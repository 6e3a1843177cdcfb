// TCP connection state machine.
//
// A full (if compact) TCP endpoint: three-way handshake, sliding-window data transfer
// with Reno congestion control, delayed ACKs, out-of-order reassembly, fast
// retransmit/recovery, RTO with exponential backoff and timestamps. The receiver hands
// in-order data straight to the application callback, so the window it advertises is a
// constant 64 KiB that never closes; a run that fills a reassembly hole reaches it one
// segment at a time, from the frames the segments arrived in. There is no teardown: no
// workload closes a connection, so a connection never sends a FIN, and a received FIN
// closes it as a RST does (the stack then answers the peer's next segment with a RST).
//
// Two aspects exist specifically to support the paper's optimizations:
//
//  * Every host packet lists its network segments (SkBuff::fragment_info; a lone packet
//    lists one), and the connection processes them per segment where the protocol
//    demands it: the piggybacked ACK of every fragment drives congestion control
//    individually, and ACK generation counts fragments, not host packets (section
//    3.4). Everything else is done once per host packet, which is where the CPU
//    savings come from.
//
//  * When one receive pass owes several ACKs, the connection reports them as a single
//    batch (first ACK fully built + the remaining ack numbers). The surrounding stack
//    either materializes each ACK (baseline) or forwards the batch as a template ACK
//    for the driver to expand (Acknowledgment Offload, section 4).
//
// The connection deliberately contains no cost accounting: cycle charging happens in
// the stack layers around it, so the same protocol code serves both the host under
// test and the zero-cost traffic-generator peers. Output items and the size of each
// delivery go down to the connection's Owner, which charges what it must.

#ifndef SRC_TCP_TCP_CONNECTION_H_
#define SRC_TCP_TCP_CONNECTION_H_

#include <cstddef>
#include <cstdint>
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
  uint32_t initial_seq = 10000;
  bool delayed_acks = true;  // ACK every second full segment (RFC 1122)
  // RFC 2018 selective acknowledgments. Off by default (the paper's receive-path
  // experiments predate widespread SACK deployment); when both endpoints enable it,
  // the receiver reports reassembly holes in dup ACKs and the sender retransmits
  // into actual holes. SACK-bearing segments always bypass Receive Aggregation.
  bool sack = false;
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
//
// `extra_acks` views the connection's own ACK batch and is valid only during the
// Owner::Output call that receives the item: expand the item inside that call, or copy
// the ack numbers out. The batch is reused by the connection's next receive pass.
struct TcpOutputItem {
  std::vector<uint8_t> frame;
  std::span<const uint32_t> extra_acks;
  size_t payload_size = 0;  // TCP payload bytes in `frame`
};

// What the data frames of a synthetic stream carry: the pattern bytes, or only their
// length (a length-only TcpPayload, src/wire/frame.h) for runs where nothing reads
// them. Retransmissions carry the same.
enum class SyntheticPayload : uint8_t { kPatternBytes, kLengthOnly };

class TcpConnection {
 public:
  // The stack or node that owns the connection. It must outlive the connection.
  class Owner {
   public:
    // One unit of transmission from `conn` (see TcpOutputItem).
    virtual void Output(TcpConnection& conn, TcpOutputItem&& item) = 0;
    // The size of each delivery, an in-order segment's new bytes or a whole popped run,
    // reported before on_data sees those bytes.
    virtual void Delivered(size_t /*bytes*/) {}

   protected:
    ~Owner() = default;
  };

  using DataFn = std::function<void(std::span<const uint8_t>)>;

  TcpConnection(const TcpConnectionConfig& config, EventLoop& loop, Owner& owner);

  // ---- Application interface ----------------------------------------------------

  // Active open: emits a SYN.
  void Connect();
  // Passive open: waits for a SYN.
  void Listen();

  // Appends application data and tries to transmit. SendSynthetic arms a synthetic
  // source of `total_bytes` pattern bytes instead (see SendStream), whose frames carry
  // `payload`.
  void Send(std::span<const uint8_t> data);
  void SendSynthetic(uint64_t total_bytes,
                     SyntheticPayload payload = SyntheticPayload::kPatternBytes);

  // Delivered-in-order payload callback: the one delivery path. Each byte is handed
  // over exactly once, as soon as it is in order: an in-order segment's new bytes in
  // one call, a popped reassembly run in one call per segment, each call seeing
  // rcv_nxt and bytes_received() already past the whole run.
  void set_on_data(DataFn fn) { on_data_ = std::move(fn); }
  void set_on_established(std::function<void()> fn) { on_established_ = std::move(fn); }

  // ---- Stack interface ------------------------------------------------------------

  // Processes one host packet (possibly aggregated); the only input path. Each out-of-order
  // segment's frame moves into the reassembly queue: the caller then reads only frames.size().
  void OnHostPacket(SkBuff& skb);

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
  uint64_t duplicate_segments_received() const { return duplicate_segments_received_; }
  uint64_t paws_rejected() const { return paws_rejected_; }
  bool sack_active() const { return peer_sack_; }
  const SackScoreboard& scoreboard() const { return scoreboard_; }
  uint64_t ooo_segments_received() const { return ooo_segments_received_; }
  uint64_t rto_events() const { return rto_events_; }
  RenoController& congestion() { return reno_; }
  const RenoController& congestion() const { return reno_; }
  const RttEstimator& rtt() const { return rtt_; }
  // Oracle hook for the differential fuzzer: record the ack number of every pure
  // ACK this connection emits (batched runs flattened), in emission order.
  void EnableAckTrace() { ack_trace_enabled_ = true; }
  const std::vector<uint32_t>& ack_trace() const { return ack_trace_; }
  uint64_t snd_nxt_ext() const { return snd_nxt_; }
  uint64_t snd_una_ext() const { return snd_una_; }

 private:
  void ProcessListen(const SkBuff& skb);
  void ProcessSynSent(const SkBuff& skb);
  // Takes the peer's initial sequence number, initial window and negotiated options
  // (timestamps, SACK-permitted) from its SYN or SYN-ACK. Segments are sized by
  // config.mss, so the peer's MSS option is not kept. A window-scale offer is ignored:
  // this endpoint never offers one, so neither side scales (RFC 7323).
  void AdoptPeerSyn(const TcpHeader& h);
  void ProcessSegmentCommon(SkBuff& skb);
  void ProcessAckField(uint64_t ack, uint16_t window, uint64_t seg_seq, bool has_payload);
  void DeliverPayload(SkBuff& skb, uint64_t seg_seq);
  // One network segment's frame through the receive machine: duplicate / out-of-order
  // (the frame moves into the reassembly queue) / in-order handling, ACK accounting,
  // reassembly pops. Aggregated host packets replay each fragment individually (3.4.2).
  void DeliverSegment(PacketPtr& frame, uint64_t seg_seq);

  // --- output helpers ---
  void EmitSyn(bool with_ack);
  // Emits one pure ACK of rcv_nxt_.
  void EmitAck();
  // Emits a run of pure ACKs as one output item, whose extra_acks view `ack_values`
  // past the first.
  void EmitPureAcks(std::span<const uint32_t> ack_values);
  void EmitDataSegment(uint64_t seq, uint32_t len, bool retransmit);
  // Sends what the peer's window, cwnd and sender-side SWS avoidance allow.
  void TrySendData();
  // Writes one segment. An established segment (not a SYN, the peer uses timestamps, no
  // SACK blocks to report) is the header image with its varying fields stored; any other
  // puts its option bytes together first (HarnessCounters::tcp_option_blocks_built).
  std::vector<uint8_t> BuildSegment(uint32_t seq, uint32_t ack, uint8_t flags,
                                    TcpPayload payload);
  uint32_t NowTsMs() const;

  // --- timers ---
  void ArmRto();
  void OnRtoFired();
  void OnDelayedAckFired();

  void RetransmitHead();
  // During SACK recovery: retransmits the next un-retransmitted hole (one per
  // incoming dup/partial ACK, RFC 6675-style pacing).
  void SackRetransmit();
  void SetState(TcpState s);
  uint64_t Unwrap(uint32_t wire, uint64_t reference) const;

  TcpConnectionConfig config_;
  EventLoop& loop_;
  Owner& owner_;
  DataFn on_data_;
  std::function<void()> on_established_;

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
  SyntheticPayload synthetic_payload_ = SyntheticPayload::kPatternBytes;

  // Receive side.
  uint64_t irs_ = 0;
  uint64_t rcv_nxt_ = 0;
  ReassemblyQueue reassembly_;
  bool peer_uses_timestamps_ = false;
  uint32_t ts_recent_ = 0;
  uint64_t paws_rejected_ = 0;
  bool peer_sack_ = false;
  SackScoreboard scoreboard_;
  uint64_t rtx_high_ = 0;  // highest sequence retransmitted in this recovery episode

  RenoController reno_;
  RttEstimator rtt_;
  uint32_t rto_backoff_ = 0;

  // ACK bookkeeping. `pending_acks_` is the batch one receive pass assembles; it is
  // emitted as one output item and cleared at the end of the pass, keeping its storage.
  uint32_t segs_since_ack_ = 0;
  std::vector<uint32_t> pending_acks_;
  bool data_sent_in_pass_ = false;
  // The connection's two timers. SetState(kClosed) cancels both: a closed connection
  // sends nothing.
  EventLoop::Timer rto_timer_;
  EventLoop::Timer delack_timer_;
  // Addresses and ports are fixed for the connection's life: every segment is
  // written from this one header image, an established one by storing only the fields
  // that vary (src/wire/frame.h).
  const TcpFrameTemplate frame_template_;

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
  uint64_t duplicate_segments_received_ = 0;
  uint64_t ooo_segments_received_ = 0;
  uint64_t rto_events_ = 0;
};

}  // namespace tcprx

#endif  // SRC_TCP_TCP_CONNECTION_H_
