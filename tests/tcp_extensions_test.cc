// Tests for the protocol extensions around the paper's bypass rules: SACK
// (scoreboard, block generation, SACK-aware retransmission), the unscaled answer to a
// window-scale offer, PAWS, and the stack's RST generation for unknown flows.

#include <gtest/gtest.h>

#include "src/stack/network_stack.h"
#include "src/tcp/sack.h"
#include "src/tcp/tcp_connection.h"
#include "src/util/byte_order.h"
#include "src/util/event_loop.h"
#include "src/util/harness_counters.h"
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
// End-to-end via a loopback pair (with SACK enabled)
// ---------------------------------------------------------------------------

using testutil::ConnectionPair;

// Config hook: both sides enable SACK as given.
ConnectionPair::ConfigHook Extensions(bool enable_sack) {
  return [=](TcpConnectionConfig& config, bool) { config.sack = enable_sack; };
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

// ---------------------------------------------------------------------------
// Segment shapes: the header image and the explicit option bytes
// ---------------------------------------------------------------------------

// Every segment a connection writes with timestamps and nothing else in its options
// comes from its header image; SYNs and ACKs carrying SACK blocks put their option
// bytes together (HarnessCounters::tcp_option_blocks_built counts them) and still carry
// every option they did.
TEST(SegmentShape, SynsAndSackAcksCarryTheirOptionsAndTheRestAreEstablished) {
  const uint64_t built_before = thread_harness_counters.tcp_option_blocks_built;
  ConnectionPair pair(Extensions(/*enable_sack=*/true));
  pair.Establish();
  EXPECT_EQ(thread_harness_counters.tcp_option_blocks_built - built_before, 2u);
  // One mid-window data segment is lost once, so the server holds out-of-order data.
  int drops = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && drops > 0 && pair.client->congestion().cwnd() > 6 * 1448) {
      const auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size == 1448) {
        --drops;
        return false;
      }
    }
    return true;
  };
  pair.client->SendSynthetic(100 * 1448);
  pair.Run(600);
  ASSERT_EQ(pair.server->bytes_received(), 100u * 1448);

  uint64_t syns = 0;
  uint64_t sack_acks = 0;
  uint64_t established = 0;
  for (const auto& [from_client, frame] : pair.wire_log) {
    const auto view = ParseTcpFrame(frame);
    ASSERT_TRUE(view.has_value());
    const TcpHeader& tcp = view->tcp;
    ASSERT_TRUE(tcp.timestamp.has_value());
    if (tcp.Has(kTcpSyn)) {
      ++syns;
      EXPECT_EQ(tcp.mss, 1448);
      EXPECT_TRUE(tcp.sack_permitted);
    } else if (tcp.has_sack_blocks) {
      ++sack_acks;
      EXPECT_FALSE(from_client);
      EXPECT_EQ(tcp.flags, kTcpAck);
      EXPECT_EQ(view->payload_size, 0u);
      EXPECT_EQ(tcp.timestamp_offset, 2);
    } else {
      ++established;
      EXPECT_EQ(tcp.HeaderSize(), kTcpMinHeaderSize + kTcpTimestampOptionSize);
      EXPECT_EQ(LoadBe32(tcp.raw_options.data()), kTcpAlignedTimestampWord);
      EXPECT_EQ(tcp.window, 65535);
    }
  }
  EXPECT_EQ(syns, 2u);
  EXPECT_GT(sack_acks, 0u);
  EXPECT_GT(established, 100u);
  // Each SACK-carrying ACK was built once; a run of them may leave as one template.
  const uint64_t built = thread_harness_counters.tcp_option_blocks_built - built_before;
  EXPECT_GT(built, syns);
  EXPECT_LE(built, syns + sack_acks);
}

// A peer without timestamps gets established segments without options, a bare 20-byte
// TCP header built explicitly; its SYN-ACK, as every SYN, still offers the MSS and
// timestamps.
TEST(SegmentShape, APeerWithoutTimestampsGetsNoTimestampBlock) {
  EventLoop loop;
  PacketPool pool;
  testutil::FrameLog sent;
  TcpConnectionConfig config;
  config.local_ip = testutil::ServerIp();
  config.remote_ip = testutil::ClientIp();
  config.local_port = 5001;
  config.remote_port = 10000;
  config.local_mac = testutil::ServerMac();
  config.remote_mac = testutil::ClientMac();
  TcpConnection server(config, loop, sent);
  server.Listen();
  const auto deliver = [&](const FrameOptions& options, size_t payload_size) {
    server.OnHostPacket(
        *SkBuff::Wrap(testutil::ToPacket(pool, MakeFrame(options, payload_size))));
  };
  const uint64_t built_before = thread_harness_counters.tcp_option_blocks_built;

  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 1000;
  syn.ack = 0;
  syn.with_timestamp = false;
  deliver(syn, 0);
  ASSERT_EQ(sent.frames.size(), 1u);
  const auto syn_ack = ParseTcpFrame(sent.frames[0]);
  ASSERT_TRUE(syn_ack.has_value());
  EXPECT_TRUE(syn_ack->tcp.mss.has_value());
  EXPECT_TRUE(syn_ack->tcp.timestamp.has_value());

  // The handshake's ACK, then two full segments: the second is owed an ACK.
  FrameOptions segment;
  segment.seq = 1001;
  segment.ack = syn_ack->tcp.seq + 1;
  segment.with_timestamp = false;
  deliver(segment, 0);
  ASSERT_EQ(server.state(), TcpState::kEstablished);
  deliver(segment, 1448);
  segment.seq += 1448;
  deliver(segment, 1448);
  ASSERT_EQ(sent.frames.size(), 2u);
  const auto ack = ParseTcpFrame(sent.frames[1]);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->tcp.ack, 1001u + 2 * 1448);
  EXPECT_EQ(ack->tcp.HeaderSize(), kTcpMinHeaderSize);
  EXPECT_EQ(thread_harness_counters.tcp_option_blocks_built - built_before, 2u);
}

TEST(WindowScale, PeerOfferGetsAnUnscaledAnswer) {
  // A connection never offers window scaling, so a peer that does gets a SYN-ACK
  // without the option, and neither side scales its window field (RFC 7323).
  EventLoop loop;
  PacketPool pool;
  testutil::FrameLog sent;
  TcpConnectionConfig config;
  config.local_ip = testutil::ServerIp();
  config.remote_ip = testutil::ClientIp();
  config.local_port = 5001;
  config.remote_port = 10000;
  config.local_mac = testutil::ServerMac();
  config.remote_mac = testutil::ClientMac();
  TcpConnection server(config, loop, sent);
  server.Listen();
  const auto deliver = [&](const FrameOptions& options) {
    server.OnHostPacket(*SkBuff::Wrap(testutil::ToPacket(pool, MakeFrame(options, 0))));
  };

  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 1000;
  syn.ack = 0;
  syn.extra_options = {kTcpOptNop, kTcpOptWindowScale, 3, 7};
  deliver(syn);
  ASSERT_EQ(sent.frames.size(), 1u);
  const auto syn_ack = ParseTcpFrame(sent.frames[0]);
  ASSERT_TRUE(syn_ack.has_value());
  EXPECT_TRUE(syn_ack->tcp.Has(kTcpSyn));
  EXPECT_TRUE(syn_ack->tcp.Has(kTcpAck));
  EXPECT_FALSE(syn_ack->tcp.window_scale.has_value());
  EXPECT_EQ(syn_ack->tcp.window, 65535);

  // The handshake's last ACK advertises one segment's worth, unscaled: the connection
  // may then keep exactly 1448 bytes in flight, though its cwnd allows two segments
  // and the window scaled by 7 would allow far more.
  FrameOptions ack;
  ack.seq = 1001;
  ack.ack = syn_ack->tcp.seq + 1;
  ack.window = 1448;
  deliver(ack);
  ASSERT_EQ(server.state(), TcpState::kEstablished);
  ASSERT_GT(server.congestion().cwnd(), 1448u);
  server.SendSynthetic(1'000'000);
  EXPECT_EQ(server.snd_nxt_ext() - server.snd_una_ext(), 1448u);
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
