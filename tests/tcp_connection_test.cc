// TCP connection state-machine tests, driven through a deterministic in-memory
// loopback pair (no NICs, no cost model): handshake, data transfer, delayed ACKs,
// retransmission, fast retransmit, out-of-order delivery, RST, and the batch-ACK
// output contract.

#include <gtest/gtest.h>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/tcp/tcp_connection.h"
#include "src/util/event_loop.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::ConnectionPair;

TEST(TcpConnection, ThreeWayHandshake) {
  ConnectionPair pair;
  pair.server->Listen();
  EXPECT_EQ(pair.server->state(), TcpState::kListen);
  pair.client->Connect();
  EXPECT_EQ(pair.client->state(), TcpState::kSynSent);
  pair.Run(5);
  EXPECT_EQ(pair.client->state(), TcpState::kEstablished);
  EXPECT_EQ(pair.server->state(), TcpState::kEstablished);
  // SYN, SYN-ACK, ACK on the wire.
  ASSERT_GE(pair.wire_log.size(), 3u);
  auto syn = ParseTcpFrame(pair.wire_log[0].second);
  ASSERT_TRUE(syn.has_value());
  EXPECT_TRUE(syn->tcp.Has(kTcpSyn));
  EXPECT_FALSE(syn->tcp.Has(kTcpAck));
  ASSERT_TRUE(syn->tcp.mss.has_value());
  auto synack = ParseTcpFrame(pair.wire_log[1].second);
  ASSERT_TRUE(synack.has_value());
  EXPECT_TRUE(synack->tcp.Has(kTcpSyn));
  EXPECT_TRUE(synack->tcp.Has(kTcpAck));
}

TEST(TcpConnection, EstablishedCallbacksFire) {
  ConnectionPair pair;
  int client_up = 0;
  int server_up = 0;
  pair.client->set_on_established([&] { ++client_up; });
  pair.server->set_on_established([&] { ++server_up; });
  pair.Establish();
  EXPECT_EQ(client_up, 1);
  EXPECT_EQ(server_up, 1);
}

TEST(TcpConnection, DataTransferDeliversExactBytes) {
  ConnectionPair pair;
  std::vector<uint8_t> received;
  pair.server->set_on_data([&](std::span<const uint8_t> data) {
    received.insert(received.end(), data.begin(), data.end());
  });
  pair.Establish();
  std::vector<uint8_t> sent(10000);
  for (size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<uint8_t>(i * 7);
  }
  pair.client->Send(sent);
  pair.Run(50);
  EXPECT_EQ(received, sent);
  EXPECT_EQ(pair.server->bytes_received(), sent.size());
}

TEST(TcpConnection, DelayedAckEverySecondSegment) {
  ConnectionPair pair;
  pair.Establish();
  pair.wire_log.clear();
  // Send exactly 4 MSS of data: expect 2 pure ACKs (one per two full segments).
  pair.client->Send(std::vector<uint8_t>(4 * 1448, 0xaa));
  pair.Run(30);
  int pure_acks = 0;
  for (const auto& [from_client, frame] : pair.wire_log) {
    if (!from_client) {
      auto view = ParseTcpFrame(frame);
      ASSERT_TRUE(view.has_value());
      if (view->payload_size == 0 && view->tcp.flags == kTcpAck) {
        ++pure_acks;
      }
    }
  }
  EXPECT_EQ(pure_acks, 2);
}

TEST(TcpConnection, LoneSegmentAckedByDelayedAckTimer) {
  ConnectionPair pair;
  pair.Establish();
  pair.client->Send(std::vector<uint8_t>(100, 1));
  pair.Run(2);
  // Not yet acked (one segment, delack pending).
  EXPECT_EQ(pair.client->snd_una_ext(), pair.client->snd_nxt_ext() - 100);
  pair.Run(60);  // past the 40 ms delayed-ack timeout
  EXPECT_EQ(pair.client->snd_una_ext(), pair.client->snd_nxt_ext());
}

TEST(TcpConnection, LostSegmentRecoveredByRto) {
  ConnectionPair pair;
  pair.Establish();
  int drops_remaining = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && drops_remaining > 0) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size > 0) {
        --drops_remaining;
        return false;  // drop the first data segment
      }
    }
    return true;
  };
  std::vector<uint8_t> received;
  pair.server->set_on_data([&](std::span<const uint8_t> data) {
    received.insert(received.end(), data.begin(), data.end());
  });
  pair.client->Send(std::vector<uint8_t>(500, 0x55));
  pair.Run(2500);  // enough for the RTO (initial 1 s)
  EXPECT_EQ(received.size(), 500u);
  EXPECT_GE(pair.client->segments_retransmitted(), 1u);
  EXPECT_GE(pair.client->rto_events(), 1u);
}

TEST(TcpConnection, FastRetransmitOnTripleDupAck) {
  ConnectionPair pair;
  pair.Establish();
  std::vector<uint8_t> received;
  pair.server->set_on_data([&](std::span<const uint8_t> data) {
    received.insert(received.end(), data.begin(), data.end());
  });
  // Drop exactly one full-size segment, but only once the client's window has grown
  // past 6 MSS, so at least three segments follow the hole and generate the dup ACKs
  // that trigger fast retransmit well before the RTO.
  int drops_remaining = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && drops_remaining > 0 &&
        pair.client->congestion().cwnd() > 6 * 1448) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size == 1448) {
        --drops_remaining;
        return false;
      }
    }
    return true;
  };
  pair.client->SendSynthetic(200 * 1448);
  pair.Run(700);  // below the 1 s initial RTO
  EXPECT_EQ(received.size(), 200u * 1448);
  EXPECT_EQ(drops_remaining, 0);
  EXPECT_GE(pair.client->segments_retransmitted(), 1u);
  EXPECT_EQ(pair.client->rto_events(), 0u) << "should recover via fast retransmit";
  EXPECT_GE(pair.server->ooo_segments_received(), 3u);
}

TEST(TcpConnection, OutOfOrderDeliveryStillInOrderToApp) {
  ConnectionPair pair;
  pair.Establish();
  // Reorder: hold back one data segment and deliver it after its successors.
  std::vector<uint8_t> held;
  bool holding = true;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && holding) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size == 1448) {
        held = frame;
        holding = false;
        return false;
      }
    }
    return true;
  };
  std::vector<uint8_t> received;
  pair.server->set_on_data([&](std::span<const uint8_t> data) {
    received.insert(received.end(), data.begin(), data.end());
  });
  pair.client->SendSynthetic(6 * 1448);
  pair.Run(5);
  // Re-inject the held segment late.
  ASSERT_FALSE(held.empty());
  PacketPtr p = pair.pool.Allocate(held);
  p->nic_checksum_verified = true;
  SkBuffPtr skb = SkBuff::Wrap(std::move(p));
  pair.server->OnHostPacket(*skb);
  pair.Run(200);
  ASSERT_EQ(received.size(), 6u * 1448);
  for (size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], SendStream::PatternByte(i)) << "offset " << i;
  }
}

TEST(TcpConnection, DuplicateSegmentIsAckedNotRedelivered) {
  ConnectionPair pair;
  pair.Establish();
  std::vector<uint8_t> first_data_frame;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && first_data_frame.empty()) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size > 0) {
        first_data_frame = frame;
      }
    }
    return true;
  };
  uint64_t delivered = 0;
  pair.server->set_on_data([&](std::span<const uint8_t> data) { delivered += data.size(); });
  pair.client->Send(std::vector<uint8_t>(300, 9));
  pair.Run(10);
  ASSERT_EQ(delivered, 300u);
  // Replay the captured data frame.
  PacketPtr p = pair.pool.Allocate(first_data_frame);
  p->nic_checksum_verified = true;
  SkBuffPtr skb = SkBuff::Wrap(std::move(p));
  pair.server->OnHostPacket(*skb);
  pair.Run(10);
  EXPECT_EQ(delivered, 300u);  // not redelivered
  EXPECT_EQ(pair.server->duplicate_segments_received(), 1u);
}

TEST(TcpConnection, SynRetransmittedWhenLost) {
  ConnectionPair pair;
  pair.server->Listen();
  int syn_drops = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && syn_drops > 0) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->tcp.Has(kTcpSyn)) {
        --syn_drops;
        return false;
      }
    }
    return true;
  };
  pair.client->Connect();
  pair.Run(500);
  EXPECT_EQ(pair.client->state(), TcpState::kSynSent);
  pair.Run(2000);  // initial RTO 1 s
  EXPECT_EQ(pair.client->state(), TcpState::kEstablished);
  EXPECT_EQ(pair.server->state(), TcpState::kEstablished);
}

TEST(TcpConnection, RstClosesImmediately) {
  ConnectionPair pair;
  pair.Establish();
  // Craft a RST from the client's identity.
  testutil::FrameOptions options;
  options.flags = kTcpRst;
  options.seq = static_cast<uint32_t>(pair.client->snd_nxt_ext());
  PacketPtr p = pair.pool.AllocateMoved(testutil::MakeFrame(options, 0));
  p->nic_checksum_verified = true;
  SkBuffPtr skb = SkBuff::Wrap(std::move(p));
  bool closed = false;
  pair.server->set_on_closed([&] { closed = true; });
  pair.server->OnHostPacket(*skb);
  EXPECT_EQ(pair.server->state(), TcpState::kClosed);
  EXPECT_TRUE(closed);
}

TEST(TcpConnection, CwndGrowsDuringTransfer) {
  ConnectionPair pair;
  pair.Establish();
  const uint32_t initial = pair.client->congestion().cwnd();
  pair.client->SendSynthetic(100 * 1448);
  pair.Run(300);
  EXPECT_EQ(pair.server->bytes_received(), 100u * 1448);
  EXPECT_GT(pair.client->congestion().cwnd(), initial);
}

TEST(TcpConnection, PiggybackAckOnEchoResponse) {
  ConnectionPair pair;
  pair.Establish();
  pair.server->set_on_data([&](std::span<const uint8_t> data) {
    pair.server->Send(std::vector<uint8_t>(data.size(), 0x42));
  });
  pair.wire_log.clear();
  pair.client->Send(std::vector<uint8_t>(1, 0x21));
  pair.Run(30);
  // The server's response must carry the ACK; no separate pure ACK from the server
  // for the 1-byte request.
  int server_pure_acks = 0;
  int server_data_frames = 0;
  for (const auto& [from_client, frame] : pair.wire_log) {
    if (!from_client) {
      auto view = ParseTcpFrame(frame);
      ASSERT_TRUE(view.has_value());
      if (view->payload_size == 0) {
        ++server_pure_acks;
      } else {
        ++server_data_frames;
        EXPECT_TRUE(view->tcp.Has(kTcpAck));
      }
    }
  }
  EXPECT_EQ(server_data_frames, 1);
  EXPECT_EQ(server_pure_acks, 0);
}

TEST(TcpConnection, WindowLimitsInFlightData) {
  ConnectionPair pair;
  pair.Establish();
  // Freeze the server (no ACKs processed): simply don't run the loop after sending.
  pair.client->SendSynthetic(1'000'000);
  // Synchronously, the client can emit at most min(cwnd, 65535) unacked bytes.
  const uint64_t in_flight = pair.client->snd_nxt_ext() - pair.client->snd_una_ext();
  EXPECT_LE(in_flight, 65535u);
}

TEST(TcpConnection, AggregatedHostPacketDeliveredAsOneUnit) {
  // Hand-build an aggregated SkBuff (three segments) and feed it to an established
  // server connection directly.
  ConnectionPair pair;
  pair.Establish();
  std::vector<uint8_t> received;
  pair.server->set_on_data([&](std::span<const uint8_t> data) {
    received.insert(received.end(), data.begin(), data.end());
  });

  const uint32_t base = static_cast<uint32_t>(pair.client->snd_nxt_ext());
  testutil::FrameOptions options;
  options.seq = base;
  options.ack = static_cast<uint32_t>(pair.server->snd_nxt_ext());
  PacketPtr head = pair.pool.AllocateMoved(testutil::MakeFrame(options, 100));
  head->nic_checksum_verified = true;
  SkBuffPtr skb = SkBuff::Wrap(std::move(head));
  ASSERT_NE(skb, nullptr);
  skb->csum_verified = true;
  ASSERT_EQ(skb->fragment_info.size(), 1u);  // Wrap listed the head segment
  for (uint32_t i = 0; i < 2; ++i) {
    testutil::FrameOptions frag_options;
    frag_options.seq = base + 100 + i * 100;
    frag_options.ack = options.ack;
    skb->frags.push_back(pair.pool.AllocateMoved(testutil::MakeFrame(frag_options, 100)));
    skb->fragment_info.push_back(
        FragmentInfo{frag_options.seq, frag_options.ack, 65535, 100});
  }
  // Patch the head's IP length to cover all 300 payload bytes (as the aggregator
  // would) so the logical view is consistent.
  auto bytes = skb->head->MutableBytes();
  StoreBe16(bytes.data() + skb->view().ip_offset + 2,
            static_cast<uint16_t>(20 + 32 + 300));
  StoreBe16(bytes.data() + skb->view().ip_offset + 10, 0);
  const uint16_t csum = InternetChecksum(bytes.subspan(skb->view().ip_offset, 20));
  StoreBe16(bytes.data() + skb->view().ip_offset + 10, csum);
  skb->ReparseHead();

  const uint64_t bytes_before = pair.server->bytes_received();
  pair.server->OnHostPacket(*skb);
  EXPECT_EQ(received.size(), 300u);
  EXPECT_EQ(pair.server->bytes_received() - bytes_before, 300u);
}

}  // namespace
}  // namespace tcprx
