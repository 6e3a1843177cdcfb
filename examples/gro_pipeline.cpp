// Library building blocks, standalone: using the Receive Aggregation engine and the
// ACK-offload template machinery directly — no testbed, no simulated time — the way a
// userspace packet pipeline (a DPDK-style app, a packet-capture post-processor, a
// custom stack) would embed them.
//
// The example synthesizes an interleaved two-flow packet stream with an occasional
// pure ACK and pushes it frame by frame through an Aggregator: frames in, host packets
// out. Each Push (and the closing FlushAll) appends the host packets it finished to a
// list the pipeline owns, which prints them and reuses the list. Then it builds a
// template ACK and expands it the way the driver would.

#include <cstdio>
#include <vector>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/core/aggregator.h"
#include "src/core/template_ack.h"
#include "src/sim/trace.h"
#include "src/wire/frame.h"

using namespace tcprx;

namespace {

std::vector<uint8_t> MakeSegment(uint16_t src_port, uint32_t seq, uint32_t ack,
                                 size_t payload_size, uint8_t flags = kTcpAck) {
  TcpFrameSpec spec;
  spec.src_mac = MacAddress::FromHostId(2);
  spec.dst_mac = MacAddress::FromHostId(1);
  spec.src_ip = Ipv4Address::FromOctets(10, 0, 0, 2);
  spec.dst_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  spec.tcp.src_port = src_port;
  spec.tcp.dst_port = 5001;
  spec.tcp.seq = seq;
  spec.tcp.ack = ack;
  spec.tcp.flags = flags;
  spec.tcp.window = 65535;
  uint8_t ts[kTcpTimestampOptionSize];
  WriteTimestampOption(TcpTimestampOption{1234, 567}, ts);
  spec.tcp.raw_options.assign(ts, ts + kTcpTimestampOptionSize);
  const std::vector<uint8_t> payload(payload_size, 0x5a);
  spec.payload = payload;
  return BuildTcpFrame(spec);
}

}  // namespace

int main() {
  PacketPool packets;

  std::printf("=== Receive Aggregation as a standalone library ===\n\n");

  Aggregator aggregator(8);
  Aggregator::HostPackets out;
  size_t host_packets = 0;
  // Prints the host packets the last call finished and empties the list for the next.
  const auto drain = [&] {
    for (const SkBuffPtr& skb : out) {
      ++host_packets;
      std::printf("  out[%zu]: %zu segment(s), %5zu payload bytes, flow :%u  %s\n",
                  host_packets, skb->SegmentCount(), skb->PayloadSize(),
                  skb->view().tcp.src_port,
                  skb->frames.size() == 1 ? "(passthrough)" : "(aggregated)");
    }
    out.clear();
  };
  // A frame that is not TCP/IPv4 comes back untouched, for another protocol's handler;
  // this stream has none.
  const auto push = [&](PacketPtr frame) {
    if (aggregator.Push(std::move(frame), out) != nullptr) {
      std::printf("  handed back: not TCP/IPv4\n");
    }
    drain();
  };

  // Two interleaved flows, five MTU segments each, plus one pure ACK that must
  // overtake nothing.
  std::printf("in: 10 interleaved data segments on two flows + 1 pure ACK\n\n");
  uint32_t seq_a = 1;
  uint32_t seq_b = 90001;
  for (int i = 0; i < 5; ++i) {
    for (const uint16_t port : {uint16_t{7001}, uint16_t{7002}}) {
      uint32_t& seq = port == 7001 ? seq_a : seq_b;
      PacketPtr p = packets.AllocateMoved(MakeSegment(port, seq, 100, 1448));
      p->nic_checksum_verified = true;  // rx checksum offload verdict
      push(std::move(p));
      seq += 1448;
    }
  }
  PacketPtr ack = packets.AllocateMoved(MakeSegment(7001, seq_a, 100, 0));
  ack->nic_checksum_verified = true;
  push(std::move(ack));        // flushes flow 7001 first, then passes through
  aggregator.FlushAll(out);    // work-conserving flush of flow 7002
  drain();

  const auto& stats = aggregator.stats();
  std::printf("\nstats: pushed=%llu aggregated_segments=%llu aggregates=%llu "
              "passthrough=%llu\n",
              static_cast<unsigned long long>(stats.pushed),
              static_cast<unsigned long long>(stats.aggregated_segments),
              static_cast<unsigned long long>(stats.aggregates_delivered),
              static_cast<unsigned long long>(stats.passthrough));

  std::printf("\n=== Acknowledgment Offload as a standalone library ===\n\n");
  // The TCP layer owes ACKs for segments 1..2896, ..5792, ..8688: one template.
  TcpFrameSpec first_ack_spec;
  first_ack_spec.src_mac = MacAddress::FromHostId(1);
  first_ack_spec.dst_mac = MacAddress::FromHostId(2);
  first_ack_spec.src_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  first_ack_spec.dst_ip = Ipv4Address::FromOctets(10, 0, 0, 2);
  first_ack_spec.tcp.src_port = 5001;
  first_ack_spec.tcp.dst_port = 7001;
  first_ack_spec.tcp.seq = 100;
  first_ack_spec.tcp.ack = 2897;
  first_ack_spec.tcp.flags = kTcpAck;
  first_ack_spec.tcp.window = 65535;
  const uint32_t extra_acks[] = {5793, 8689};
  TcpOutputItem tmpl;
  tmpl.frame = BuildTcpFrame(first_ack_spec);
  tmpl.extra_acks = extra_acks;
  std::printf("template: 1 stack traversal stands for %zu ACKs\n",
              1 + tmpl.extra_acks.size());
  ExpandTemplateAck(std::move(tmpl), [](std::vector<uint8_t>&& frame) {
    std::printf("  driver emits: %s\n", FormatTcpFrame(frame).c_str());
  });
  return 0;
}
