// The direct-drive tier of the differential fuzzer: one NetworkStack fed frame by
// frame, with no NICs, no links and no CPU clock, and the event loop advanced only at
// explicit points, so two harnesses fed the same frames see byte-identical timelines.
//
// The server (10.0.0.1:kServerPort) is the stack under test; flow f is the client
// 10.0.0.2:kClientPortBase + f, whose first data byte, stream offset 0, has sequence
// number kFirstDataSeq. Every data frame carries the synthetic send pattern at its
// stream offset, so the receiver checks it with a PatternCheck.
//
// A harness given a stack Mutation (scenario.h) plants it: kCoalesceAcks in its
// host-packet tap, kSkipIdleFlush in Idle(). Any other value plants nothing here.

#ifndef SRC_FUZZ_DIRECT_HARNESS_H_
#define SRC_FUZZ_DIRECT_HARNESS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/fuzz/scenario.h"
#include "src/sim/pcap.h"
#include "src/sim/testbed.h"
#include "src/stack/network_stack.h"
#include "src/tcp/send_stream.h"
#include "src/wire/frame.h"
#include "src/wire/frame_buffer.h"

namespace tcprx {
namespace fuzz {

inline constexpr uint16_t kServerPort = 5001;
inline constexpr uint16_t kClientPortBase = Testbed::kFirstClientPort;
inline constexpr uint32_t kFirstDataSeq = 1000;

inline Ipv4Address DirectClientIp() { return Ipv4Address::FromOctets(10, 0, 0, 2); }
inline Ipv4Address DirectServerIp() { return Ipv4Address::FromOctets(10, 0, 0, 1); }

// One client frame, after fault application.
struct WireFrame {
  size_t flow = 0;
  uint32_t seq = 0;
  uint32_t payload_len = 0;
  bool csum_ok = true;  // false models a NIC that flagged the frame as corrupt
  std::vector<uint8_t> bytes;
};

// A client frame of `flow` with a timestamp option and, for payload_len > 0, the
// pattern bytes at stream offset seq - kFirstDataSeq.
inline std::vector<uint8_t> BuildClientFrame(size_t flow, uint32_t seq, uint32_t ack,
                                             uint8_t flags, uint32_t payload_len,
                                             uint32_t ts_value) {
  TcpFrameSpec spec;
  spec.src_mac = MacAddress::FromHostId(2);
  spec.dst_mac = MacAddress::FromHostId(1);
  spec.src_ip = DirectClientIp();
  spec.dst_ip = DirectServerIp();
  spec.fill_tcp_checksum = true;
  spec.tcp.src_port = static_cast<uint16_t>(kClientPortBase + flow);
  spec.tcp.dst_port = kServerPort;
  spec.tcp.seq = seq;
  spec.tcp.ack = ack;
  spec.tcp.flags = flags;
  spec.tcp.window = 65535;
  uint8_t ts[kTcpTimestampOptionSize];
  WriteTimestampOption(TcpTimestampOption{ts_value, 50}, ts);
  spec.tcp.raw_options.assign(ts, ts + kTcpTimestampOptionSize);
  // The synthetic stream's bytes, so the receiver checks them as a testbed receiver does.
  spec.payload = SendStream::PatternView(seq - kFirstDataSeq, payload_len);
  return BuildTcpFrame(spec);
}

// A data segment of `flow` (ACK flag set, acknowledging `ack`).
inline WireFrame DataFrame(size_t flow, uint32_t seq, uint32_t ack, uint32_t payload_len,
                           uint32_t ts_value) {
  return WireFrame{flow, seq, payload_len, true,
                   BuildClientFrame(flow, seq, ack, kTcpAck, payload_len, ts_value)};
}

class DirectHarness {
 public:
  // `pcap`, when not null, records every frame fed and sent.
  DirectHarness(const StackConfig& config, size_t flows, PcapWriter* pcap = nullptr,
                Mutation mutation = Mutation::kNone)
      : pcap_(pcap), mutation_(mutation), conns_(flows), delivered_(flows), tap_(flows) {
    stack_ = std::make_unique<NetworkStack>(
        config, loop_, [this](int, std::vector<uint8_t>&& frame) {
          if (pcap_ != nullptr) {
            pcap_->Record(loop_.Now(), frame);
          }
          sent_.push_back(std::move(frame));
        });
    stack_->AddLocalAddress(DirectServerIp(), 0);
    stack_->AddRoute(DirectClientIp(), 0);
    stack_->Listen(kServerPort, [this](TcpConnection& conn) {
      const size_t flow = static_cast<size_t>(conn.config().remote_port - kClientPortBase);
      if (flow >= conns_.size()) {
        return;
      }
      conns_[flow] = &conn;
      conn.EnableAckTrace();
      conn.set_on_data([this, flow](std::span<const uint8_t> d) { delivered_[flow].Feed(d); });
    });
    stack_->set_host_packet_tap([this](SkBuff& skb) {
      const TcpFrameView& view = skb.view();
      const size_t flow = static_cast<size_t>(view.tcp.src_port - kClientPortBase);
      if (view.tcp.dst_port == kServerPort && flow < tap_.size()) {
        for (const FragmentInfo& fi : skb.fragment_info) {
          if (fi.payload_len > 0) {
            tap_[flow].emplace_back(fi.seq, fi.payload_len);
          }
        }
      }
      if (mutation_ == Mutation::kCoalesceAcks) {
        skb.fragment_info.resize(1);
        skb.fragment_info[0].ack = view.tcp.ack;
        skb.fragment_info[0].window = view.tcp.window;
      }
    });
  }

  void Feed(const WireFrame& f) {
    if (pcap_ != nullptr) {
      pcap_->Record(loop_.Now(), f.bytes);
    }
    PacketPtr p = stack_->packet_pool().AllocateMoved(CopyFrame(f.bytes));
    p->nic_checksum_verified = f.csum_ok;
    stack_->ReceiveFrame(std::move(p));
  }

  // Work-conserving flush point; records a violation if the aggregator still holds
  // a partial afterwards.
  void Idle() {
    if (mutation_ != Mutation::kSkipIdleFlush) {
      stack_->OnReceiveQueueEmpty();
    }
    const Aggregator* aggregator = stack_->aggregator();
    if (aggregator != nullptr && aggregator->PendingFlows() != 0) {
      ++work_violations_;
    }
  }

  void Advance(SimDuration d) { loop_.RunUntil(loop_.Now() + d); }

  // Feeds `frames` in batches of `batch`, each followed by Idle() and 150 us.
  void Drive(const std::vector<WireFrame>& frames, size_t batch) {
    size_t fed = 0;
    while (fed < frames.size()) {
      for (size_t i = 0; i < batch && fed < frames.size(); ++i, ++fed) {
        Feed(frames[fed]);
      }
      Idle();
      Advance(SimDuration::FromMicros(150));
    }
  }

  // Server side of the handshake for every flow; returns per-flow server ISS.
  const std::vector<uint32_t>& HandshakeAll() {
    iss_.assign(conns_.size(), 0);
    for (size_t f = 0; f < conns_.size(); ++f) {
      Feed(WireFrame{f, kFirstDataSeq - 1, 0, true,
                     BuildClientFrame(f, kFirstDataSeq - 1, 0, kTcpSyn, 0, 100)});
      Idle();
      if (sent_.empty()) {
        continue;
      }
      auto synack = ParseTcpFrame(sent_.back());
      if (!synack.has_value()) {
        continue;
      }
      iss_[f] = synack->tcp.seq;
      Feed(DataFrame(f, kFirstDataSeq, iss_[f] + 1, 0, 100));
      Idle();
    }
    sent_.clear();
    return iss_;
  }

  // Pure-ACK ack numbers transmitted so far, grouped by destination (client) flow.
  std::vector<std::vector<uint32_t>> SentAcksPerFlow() const {
    std::vector<std::vector<uint32_t>> out(conns_.size());
    for (const auto& frame : sent_) {
      auto view = ParseTcpFrame(frame);
      if (!view.has_value() || view->payload_size != 0 || view->tcp.flags != kTcpAck) {
        continue;
      }
      const size_t flow = static_cast<size_t>(view->tcp.dst_port - kClientPortBase);
      if (flow < out.size()) {
        out[flow].push_back(view->tcp.ack);
      }
    }
    return out;
  }

  // The flows whose connection the stack never accepted.
  std::vector<size_t> Unaccepted() const {
    std::vector<size_t> flows;
    for (size_t f = 0; f < conns_.size(); ++f) {
      if (conns_[f] == nullptr) {
        flows.push_back(f);
      }
    }
    return flows;
  }

  NetworkStack& stack() { return *stack_; }
  TcpConnection* conn(size_t flow) const { return conns_[flow]; }
  const std::vector<uint32_t>& iss() const { return iss_; }  // from HandshakeAll()
  const std::vector<std::vector<uint8_t>>& sent() const { return sent_; }
  const PatternCheck& delivered(size_t flow) const { return delivered_[flow]; }
  // Per flow, the (seq, length) of every segment entering TCP, fragments flattened.
  const std::vector<std::pair<uint32_t, uint32_t>>& tap(size_t flow) const {
    return tap_[flow];
  }
  size_t work_violations() const { return work_violations_; }

 private:
  EventLoop loop_;
  PcapWriter* pcap_;
  Mutation mutation_;
  std::unique_ptr<NetworkStack> stack_;
  std::vector<std::vector<uint8_t>> sent_;
  std::vector<TcpConnection*> conns_;
  std::vector<uint32_t> iss_;
  std::vector<PatternCheck> delivered_;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> tap_;
  size_t work_violations_ = 0;
};

}  // namespace fuzz
}  // namespace tcprx

#endif  // SRC_FUZZ_DIRECT_HARNESS_H_
