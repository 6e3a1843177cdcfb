// Shared helpers for the unit and property tests: canonical frame builders and a
// directly wired pair of TCP connections that bypasses NICs, links and the cost model
// for fully deterministic packet-by-packet tests.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/core/template_ack.h"
#include "src/tcp/tcp_connection.h"
#include "src/util/event_loop.h"
#include "src/wire/frame.h"

namespace tcprx {
namespace testutil {

// The reference Internet checksum (RFC 1071): the data two bytes at a time, the
// zero-padded odd byte last, folded but not complemented.
inline uint16_t BytePairFoldedSum(std::span<const uint8_t> data) {
  uint64_t sum = 0;
  for (size_t i = 0; i < data.size(); i += 2) {
    sum += static_cast<uint64_t>(data[i]) << 8 | (i + 1 < data.size() ? data[i + 1] : 0);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(sum);
}

inline Ipv4Address ClientIp() { return Ipv4Address::FromOctets(10, 0, 0, 2); }
inline Ipv4Address ServerIp() { return Ipv4Address::FromOctets(10, 0, 0, 1); }
inline MacAddress ClientMac() { return MacAddress::FromHostId(2); }
inline MacAddress ServerMac() { return MacAddress::FromHostId(1); }

struct FrameOptions {
  uint32_t seq = 1;
  uint32_t ack = 1;
  uint8_t flags = kTcpAck;
  uint16_t window = 65535;
  uint16_t src_port = 10000;
  uint16_t dst_port = 5001;
  bool with_timestamp = true;
  uint32_t ts_value = 100;
  uint32_t ts_echo = 50;
  std::vector<uint8_t> extra_options;  // appended after the timestamp block
  bool fill_checksum = true;
  uint16_t ip_id = 1;
  uint8_t ttl = 64;
};

// Builds a client->server TCP frame with `payload` bytes of 0xA5-ish pattern data.
inline std::vector<uint8_t> MakeFrame(const FrameOptions& options, size_t payload_size) {
  TcpFrameSpec spec;
  spec.src_mac = ClientMac();
  spec.dst_mac = ServerMac();
  spec.src_ip = ClientIp();
  spec.dst_ip = ServerIp();
  spec.ip_id = options.ip_id;
  spec.ttl = options.ttl;
  spec.fill_tcp_checksum = options.fill_checksum;
  spec.tcp.src_port = options.src_port;
  spec.tcp.dst_port = options.dst_port;
  spec.tcp.seq = options.seq;
  spec.tcp.ack = options.ack;
  spec.tcp.flags = options.flags;
  spec.tcp.window = options.window;
  if (options.with_timestamp) {
    uint8_t ts[kTcpTimestampOptionSize];
    WriteTimestampOption(TcpTimestampOption{options.ts_value, options.ts_echo}, ts);
    spec.tcp.raw_options.assign(ts, ts + kTcpTimestampOptionSize);
  }
  std::copy(options.extra_options.begin(), options.extra_options.end(),
            spec.tcp.raw_options.Append(options.extra_options.size()).begin());
  std::vector<uint8_t> payload(payload_size);
  for (size_t i = 0; i < payload_size; ++i) {
    payload[i] = static_cast<uint8_t>(options.seq + i);
  }
  spec.payload = payload;
  return BuildTcpFrame(spec);
}

// Wraps a frame in a pooled Packet with the rx-checksum-offload verdict set.
inline PacketPtr ToPacket(PacketPool& pool, std::vector<uint8_t> frame,
                          bool csum_verified = true) {
  PacketPtr p = pool.AllocateMoved(std::move(frame));
  p->nic_checksum_verified = csum_verified;
  return p;
}

// The payload bytes MakeFrame generated for a given seq/len, for stream checks.
inline std::vector<uint8_t> ExpectedPayload(uint32_t seq, size_t len) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>(seq + i);
  }
  return out;
}

// A connection's owner that keeps the frame of every output item, in order.
struct FrameLog final : TcpConnection::Owner {
  void Output(TcpConnection& /*conn*/, TcpOutputItem&& item) override {
    frames.push_back(std::move(item.frame));
  }

  std::vector<std::vector<uint8_t>> frames;
};

// Two directly wired connections: client 10.0.0.2:10000 (initial seq 1000) and
// server 10.0.0.1:5001 (initial seq 77000). Every frame a side emits is logged, then
// offered to `filter`, and if kept it reaches the other side 10 us later. Each side's
// owner keeps the size of every delivery that side reports.
class ConnectionPair {
 public:
  // Adjusts a side's config before its connection is built.
  using ConfigHook = std::function<void(TcpConnectionConfig& config, bool client)>;
  // Returns false to drop the frame.
  using Filter = std::function<bool(bool from_client, const std::vector<uint8_t>& frame)>;

  explicit ConnectionPair(const ConfigHook& hook = {}) {
    TcpConnectionConfig client_config;
    client_config.local_ip = ClientIp();
    client_config.remote_ip = ServerIp();
    client_config.local_port = 10000;
    client_config.remote_port = 5001;
    client_config.local_mac = ClientMac();
    client_config.remote_mac = ServerMac();
    client_config.initial_seq = 1000;

    TcpConnectionConfig server_config = client_config;
    server_config.local_ip = ServerIp();
    server_config.remote_ip = ClientIp();
    server_config.local_port = 5001;
    server_config.remote_port = 10000;
    server_config.local_mac = ServerMac();
    server_config.remote_mac = ClientMac();
    server_config.initial_seq = 77000;

    if (hook) {
      hook(client_config, true);
      hook(server_config, false);
    }
    client = std::make_unique<TcpConnection>(client_config, loop, client_side);
    server = std::make_unique<TcpConnection>(server_config, loop, server_side);
  }
  ConnectionPair(const ConnectionPair&) = delete;
  ConnectionPair& operator=(const ConnectionPair&) = delete;

  void Establish() {
    server->Listen();
    client->Connect();
    Run(5);
    ASSERT_EQ(client->state(), TcpState::kEstablished);
    ASSERT_EQ(server->state(), TcpState::kEstablished);
  }

  void Run(uint64_t millis) { loop.RunUntil(loop.Now() + SimDuration::FromMillis(millis)); }

  // One side's owner: what the side emits crosses to the other side, and `delivered`
  // lists the size of each delivery it reported.
  struct Side final : TcpConnection::Owner {
    Side(ConnectionPair& owner_pair, bool is_client) : pair(owner_pair), client(is_client) {}
    void Output(TcpConnection& /*conn*/, TcpOutputItem&& item) override {
      pair.Cross(client, std::move(item));
    }
    void Delivered(size_t bytes) override { delivered.push_back(bytes); }

    ConnectionPair& pair;
    const bool client;
    std::vector<size_t> delivered;
  };

  EventLoop loop;
  PacketPool pool;
  Side client_side{*this, true};
  Side server_side{*this, false};
  std::unique_ptr<TcpConnection> client;
  std::unique_ptr<TcpConnection> server;
  Filter filter;
  // Every frame either side emitted, dropped ones included, with its direction (true =
  // client->server).
  std::vector<std::pair<bool, std::vector<uint8_t>>> wire_log;

 private:
  void Cross(bool from_client, TcpOutputItem&& item) {
    ExpandTemplateAck(std::move(item), [this, from_client](std::vector<uint8_t> frame) {
      wire_log.emplace_back(from_client, frame);
      if (filter && !filter(from_client, frame)) {
        return;
      }
      loop.ScheduleAfter(SimDuration::FromMicros(10),
                         [this, from_client, f = std::move(frame)]() mutable {
                           PacketPtr p = pool.AllocateMoved(std::move(f));
                           p->nic_checksum_verified = true;
                           SkBuffPtr skb = SkBuff::Wrap(std::move(p));
                           ASSERT_NE(skb, nullptr);
                           (from_client ? *server : *client).OnHostPacket(*skb);
                         });
    });
  }
};

}  // namespace testutil
}  // namespace tcprx

#endif  // TESTS_TEST_UTIL_H_
