// Receive Aggregation engine tests: every eligibility rule of section 3.1, the
// chaining/rewrite mechanics of section 3.2, the Aggregation Limit of section 3.3,
// the work-conserving flush of section 3.5, and the correctness properties of
// section 3.6.

#include <gtest/gtest.h>

#include "src/core/aggregator.h"
#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;
using testutil::ToPacket;

// Appends a host packet's payload, frame by frame, to `out`.
void AppendPayload(const SkBuff& skb, std::vector<uint8_t>& out) {
  for (const PacketPtr& frame : skb.frames) {
    out.insert(out.end(), frame->Payload().begin(), frame->Payload().end());
  }
}

class AggregatorTest : public ::testing::Test {
 protected:
  explicit AggregatorTest(size_t limit = 20) : aggregator_(limit) {}

  // Pushes a frame; every host packet the push finishes is appended to delivered_.
  PacketPtr Push(PacketPtr frame) { return aggregator_.Push(std::move(frame), delivered_); }
  void FlushAll() { aggregator_.FlushAll(delivered_); }

  // Pushes an in-sequence MTU data segment for the default flow.
  void PushData(uint32_t seq, uint32_t ack = 1, size_t len = 1448, uint16_t window = 65535,
                uint32_t ts = 100) {
    FrameOptions options;
    options.seq = seq;
    options.ack = ack;
    options.window = window;
    options.ts_value = ts;
    EXPECT_EQ(Push(ToPacket(pool_, MakeFrame(options, len))), nullptr);
  }

  PacketPool pool_;
  Aggregator::HostPackets delivered_;
  Aggregator aggregator_;
};

// ---------------------------------------------------------------------------
// Basic chaining
// ---------------------------------------------------------------------------

TEST_F(AggregatorTest, ChainsInSequencePackets) {
  PushData(1000);
  PushData(1000 + 1448);
  PushData(1000 + 2 * 1448);
  EXPECT_TRUE(delivered_.empty());  // still accumulating
  FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  const SkBuff& skb = *delivered_.front();
  EXPECT_EQ(skb.SegmentCount(), 3u);
  EXPECT_EQ(skb.PayloadSize(), 3u * 1448);
  EXPECT_EQ(skb.frames.size(), 3u);
  EXPECT_EQ(skb.view().tcp.seq, 1000u);
}

TEST_F(AggregatorTest, LimitClosesAggregate) {
  for (uint32_t i = 0; i < 41; ++i) {
    PushData(1 + i * 1448);
  }
  // 41 packets at limit 20: two full aggregates delivered, one packet pending.
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0]->SegmentCount(), 20u);
  EXPECT_EQ(delivered_[1]->SegmentCount(), 20u);
  EXPECT_EQ(aggregator_.PendingFlows(), 1u);
  FlushAll();
  ASSERT_EQ(delivered_.size(), 3u);
  EXPECT_EQ(delivered_[2]->SegmentCount(), 1u);
  EXPECT_EQ(aggregator_.stats().limit_flushes, 2u);
}

TEST_F(AggregatorTest, SingletonFlushDeliversUnmodified) {
  FrameOptions options;
  options.seq = 500;
  const auto original = MakeFrame(options, 100);
  Push(ToPacket(pool_, original));
  FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  // Byte-identical frame, listed as its own one segment.
  EXPECT_TRUE(std::equal(original.begin(), original.end(),
                         delivered_.front()->head().Bytes().begin()));
  ASSERT_EQ(delivered_.front()->fragment_info.size(), 1u);
  EXPECT_EQ(delivered_.front()->fragment_info[0].seq, 500u);
  EXPECT_EQ(delivered_.front()->fragment_info[0].payload_len, 100u);
}

TEST_F(AggregatorTest, PayloadBytesPreservedExactly) {
  std::vector<uint8_t> expected;
  for (uint32_t i = 0; i < 5; ++i) {
    const uint32_t seq = 1 + i * 1448;
    PushData(seq);
    const auto part = testutil::ExpectedPayload(seq, 1448);
    expected.insert(expected.end(), part.begin(), part.end());
  }
  FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  std::vector<uint8_t> actual;
  AppendPayload(*delivered_.front(), actual);
  EXPECT_EQ(actual, expected);
}

// ---------------------------------------------------------------------------
// Header rewrite (section 3.2)
// ---------------------------------------------------------------------------

TEST_F(AggregatorTest, RewritesHeaderFromLastFragment) {
  PushData(1, /*ack=*/100, 1448, /*window=*/5000, /*ts=*/77);
  PushData(1 + 1448, /*ack=*/200, 1448, /*window=*/6000, /*ts=*/78);
  PushData(1 + 2 * 1448, /*ack=*/300, 1448, /*window=*/7000, /*ts=*/79);
  FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  const SkBuff& skb = *delivered_.front();
  EXPECT_EQ(skb.view().tcp.seq, 1u);            // first fragment's seq
  EXPECT_EQ(skb.view().tcp.ack, 300u);          // last fragment's ack
  EXPECT_EQ(skb.view().tcp.window, 7000);       // last fragment's window
  ASSERT_TRUE(skb.view().tcp.timestamp.has_value());
  EXPECT_EQ(skb.view().tcp.timestamp->value, 79u);  // last fragment's timestamp
  // IP total length covers the whole aggregate.
  EXPECT_EQ(skb.view().ip.total_length, 20 + 32 + 3 * 1448);
}

TEST_F(AggregatorTest, TimestampRewrittenWhereTheHeadCarriesIt) {
  // Timestamp first, then padding: the option sits at offset 0, not after two NOPs.
  for (uint32_t i = 0; i < 2; ++i) {
    FrameOptions options;
    options.seq = 1 + i * 1000;
    options.with_timestamp = false;
    options.extra_options = {kTcpOptTimestamp, 10, 0, 0, 0, static_cast<uint8_t>(60 + i),
                             0, 0, 0, 9, kTcpOptNop, kTcpOptNop};
    Push(ToPacket(pool_, MakeFrame(options, 1000)));
  }
  FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  const SkBuff& skb = *delivered_.front();
  ASSERT_EQ(skb.SegmentCount(), 2u);
  ASSERT_TRUE(skb.view().tcp.timestamp.has_value());
  EXPECT_EQ(skb.view().tcp.timestamp_offset, 0);
  EXPECT_EQ(skb.view().tcp.timestamp->value, 61u);  // the last fragment's
  EXPECT_EQ(skb.view().tcp.timestamp->echo_reply, 9u);
  EXPECT_EQ(skb.view().tcp.raw_options.data()[10], kTcpOptNop);  // padding untouched
  EXPECT_EQ(skb.view().tcp.raw_options.data()[11], kTcpOptNop);
}

TEST_F(AggregatorTest, AggregateIpChecksumIsValid) {
  PushData(1);
  PushData(1 + 1448);
  FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  const SkBuff& skb = *delivered_.front();
  EXPECT_TRUE(VerifyIpv4Checksum(
      skb.head().Bytes().subspan(skb.view().ip_offset, skb.view().ip.HeaderSize())));
}

TEST_F(AggregatorTest, AggregateMarkedChecksumVerified) {
  PushData(1);
  PushData(1 + 1448);
  FlushAll();
  EXPECT_TRUE(delivered_.front()->head().nic_checksum_verified);
}

TEST_F(AggregatorTest, FragmentMetadataRecordsEachSegment) {
  PushData(1, 100, 1448, 5000);
  PushData(1 + 1448, 150, 700, 5001);
  PushData(1 + 1448 + 700, 200, 1448, 5002);
  FlushAll();
  const SkBuff& skb = *delivered_.front();
  ASSERT_EQ(skb.fragment_info.size(), 3u);
  EXPECT_EQ(skb.fragment_info[0].seq, 1u);
  EXPECT_EQ(skb.fragment_info[0].ack, 100u);
  EXPECT_EQ(skb.fragment_info[0].payload_len, 1448u);
  EXPECT_EQ(skb.fragment_info[1].payload_len, 700u);
  EXPECT_EQ(skb.fragment_info[1].window, 5001);
  EXPECT_EQ(skb.fragment_info[2].ack, 200u);
}

// Expects `got` to equal `want` in every field but payload_size.
void ExpectSameHeaderFields(const TcpFrameView& got, const TcpFrameView& want) {
#define EXPECT_FIELD(field) EXPECT_EQ(got.field, want.field) << #field
  EXPECT_FIELD(eth.dst);
  EXPECT_FIELD(eth.src);
  EXPECT_FIELD(eth.ether_type);
  EXPECT_FIELD(ip.ihl_words);
  EXPECT_FIELD(ip.tos);
  EXPECT_FIELD(ip.total_length);
  EXPECT_FIELD(ip.identification);
  EXPECT_FIELD(ip.dont_fragment);
  EXPECT_FIELD(ip.more_fragments);
  EXPECT_FIELD(ip.fragment_offset);
  EXPECT_FIELD(ip.ttl);
  EXPECT_FIELD(ip.protocol);
  EXPECT_FIELD(ip.checksum);
  EXPECT_FIELD(ip.src.value);
  EXPECT_FIELD(ip.dst.value);
  EXPECT_FIELD(tcp.src_port);
  EXPECT_FIELD(tcp.dst_port);
  EXPECT_FIELD(tcp.seq);
  EXPECT_FIELD(tcp.ack);
  EXPECT_FIELD(tcp.data_offset_words);
  EXPECT_FIELD(tcp.flags);
  EXPECT_FIELD(tcp.window);
  EXPECT_FIELD(tcp.checksum);
  EXPECT_FIELD(tcp.urgent_pointer);
  EXPECT_FIELD(tcp.timestamp.has_value());
  EXPECT_FIELD(tcp.timestamp.value_or(TcpTimestampOption{}).value);
  EXPECT_FIELD(tcp.timestamp.value_or(TcpTimestampOption{}).echo_reply);
  EXPECT_FIELD(tcp.timestamp_offset);
  EXPECT_FIELD(tcp.mss);
  EXPECT_FIELD(tcp.window_scale);
  EXPECT_FIELD(tcp.sack_permitted);
  EXPECT_FIELD(tcp.has_sack_blocks);
  EXPECT_FIELD(tcp.has_unknown_option);
  EXPECT_FIELD(tcp.raw_options);
  EXPECT_FIELD(ip_offset);
  EXPECT_FIELD(tcp_offset);
  EXPECT_FIELD(payload_offset);
  EXPECT_FIELD(ip_checksum_ok);
#undef EXPECT_FIELD
}

TEST_F(AggregatorTest, HeadViewMatchesTheFlattenedAggregate) {
  // Each segment carries its timestamp first, ahead of its padding (option offset 0),
  // a rising ack, window and timestamp, and PSH only when it is an aggregate's last.
  const auto push = [&](uint32_t seq, uint32_t i, bool psh) {
    FrameOptions options;
    options.seq = seq;
    options.ack = 100 + i;
    options.window = static_cast<uint16_t>(5000 + i);
    options.flags = psh ? kTcpAck | kTcpPsh : kTcpAck;
    options.with_timestamp = false;
    options.extra_options = {kTcpOptTimestamp, 10, 0, 0, 0, static_cast<uint8_t>(60 + i),
                             0, 0, 0, static_cast<uint8_t>(i), kTcpOptNop, kTcpOptNop};
    Push(ToPacket(pool_, MakeFrame(options, 1000)));
  };
  uint32_t seq = 1;
  uint32_t i = 0;
  for (; i < 20; ++i, seq += 1000) {  // closed by the limit
    push(seq, i, /*psh=*/i == 19);
  }
  for (; i < 23; ++i, seq += 1000) {  // closed by the next segment's gap
    push(seq, i, /*psh=*/i == 22);
  }
  seq += 1000;
  for (; i < 26; ++i, seq += 1000) {  // closed by FlushAll
    push(seq, i, /*psh=*/i == 25);
  }
  FlushAll();
  EXPECT_EQ(aggregator_.stats().limit_flushes, 1u);
  EXPECT_EQ(aggregator_.stats().mismatch_flushes, 1u);
  EXPECT_EQ(aggregator_.stats().idle_flushes, 1u);

  ASSERT_EQ(delivered_.size(), 3u);
  for (const SkBuffPtr& skb : delivered_) {
    ASSERT_GT(skb->SegmentCount(), 1u);
    const std::span<const uint8_t> headers = skb->head().Bytes().first(skb->view().payload_offset);
    std::vector<uint8_t> flat(headers.begin(), headers.end());
    AppendPayload(*skb, flat);
    const auto want = ParseTcpFrame(flat);
    ASSERT_TRUE(want.has_value());
    ExpectSameHeaderFields(skb->view(), *want);
    EXPECT_EQ(skb->view().payload_size, skb->fragment_info[0].payload_len);
  }
}

TEST_F(AggregatorTest, PshOfLastFragmentPropagates) {
  PushData(1);
  FrameOptions options;
  options.seq = 1 + 1448;
  options.flags = kTcpAck | kTcpPsh;
  Push(ToPacket(pool_, MakeFrame(options, 1448)));
  FlushAll();
  EXPECT_TRUE(delivered_.front()->view().tcp.Has(kTcpPsh));
}

// ---------------------------------------------------------------------------
// Eligibility rules (section 3.1): each rule individually bypasses
// ---------------------------------------------------------------------------

TEST_F(AggregatorTest, PureAckBypasses) {
  PushData(1);
  FrameOptions ack_options;
  ack_options.seq = 1 + 1448;
  Push(ToPacket(pool_, MakeFrame(ack_options, 0)));
  // The pure ACK flushed the partial (order!) and then passed through.
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0]->PayloadSize(), 1448u);  // the partial, first
  EXPECT_EQ(delivered_[1]->PayloadSize(), 0u);     // then the ACK
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kZeroPayload)],
            1u);
}

TEST_F(AggregatorTest, MissingNicChecksumBypasses) {
  Push(ToPacket(pool_, MakeFrame(FrameOptions{}, 1448), /*csum_verified=*/false));
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kNoNicChecksum)],
            1u);
  EXPECT_EQ(aggregator_.stats().passthrough, 1u);
}

TEST_F(AggregatorTest, SynFinRstUrgBypass) {
  for (const uint8_t flag : {kTcpSyn, kTcpFin, kTcpRst, kTcpUrg}) {
    FrameOptions options;
    options.flags = static_cast<uint8_t>(kTcpAck | flag);
    options.seq = 1;
    Push(ToPacket(pool_, MakeFrame(options, flag == kTcpSyn ? 0 : 10)));
  }
  EXPECT_EQ(delivered_.size(), 4u);
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kSpecialFlags)] +
                aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kZeroPayload)],
            4u);
}

TEST_F(AggregatorTest, SackBlockOptionBypasses) {
  FrameOptions options;
  options.seq = 1;
  options.extra_options = {kTcpOptSack, 10, 0, 0, 0, 10, 0, 0, 0, 20, kTcpOptNop, kTcpOptNop};
  Push(ToPacket(pool_, MakeFrame(options, 1448)));
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kBadOptions)], 1u);
}

TEST_F(AggregatorTest, UnknownOptionBypasses) {
  FrameOptions options;
  options.extra_options = {42, 4, 1, 2};
  Push(ToPacket(pool_, MakeFrame(options, 100)));
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kBadOptions)], 1u);
}

TEST_F(AggregatorTest, BadIpChecksumBypasses) {
  auto frame = MakeFrame(FrameOptions{}, 100);
  frame[14 + 8] ^= 0x40;  // corrupt TTL -> IP checksum now wrong
  Push(ToPacket(pool_, std::move(frame)));
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kBadIpChecksum)],
            1u);
}

TEST_F(AggregatorTest, IpFragmentBypasses) {
  auto frame = MakeFrame(FrameOptions{}, 100);
  // Set MF flag and fix the IP checksum.
  StoreBe16(frame.data() + 14 + 6, 0x2000);
  StoreBe16(frame.data() + 14 + 10, 0);
  const uint16_t csum = InternetChecksum(std::span<const uint8_t>(frame).subspan(14, 20));
  StoreBe16(frame.data() + 14 + 10, csum);
  Push(ToPacket(pool_, std::move(frame)));
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kIpFragment)], 1u);
}

TEST_F(AggregatorTest, NonTcpFrameIsHandedBackAndCounted) {
  PushData(1);  // a partial the handed-back frame must leave alone
  auto frame = MakeFrame(FrameOptions{}, 10);
  StoreBe16(frame.data() + 12, 0x0806);  // ARP ethertype
  PacketPtr arp = ToPacket(pool_, std::move(frame));
  const Packet* const sent = arp.get();
  EXPECT_EQ(Push(std::move(arp)).get(), sent);
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(aggregator_.PendingFlows(), 1u);
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kNotTcp)], 1u);
  EXPECT_EQ(aggregator_.stats().raw_delivered, 1u);
  EXPECT_EQ(aggregator_.stats().pushed, 2u);
  EXPECT_EQ(aggregator_.stats().host_packets, 0u);
}

// ---------------------------------------------------------------------------
// Sequence rules
// ---------------------------------------------------------------------------

TEST_F(AggregatorTest, OutOfSequenceStartsNewAggregate) {
  PushData(1);
  PushData(1 + 1448);
  PushData(1 + 5 * 1448);  // gap: does not chain
  ASSERT_EQ(delivered_.size(), 1u);  // first aggregate delivered on mismatch
  EXPECT_EQ(delivered_[0]->SegmentCount(), 2u);
  EXPECT_EQ(aggregator_.stats().mismatch_flushes, 1u);
  FlushAll();
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[1]->view().tcp.seq, 1u + 5 * 1448);
}

TEST_F(AggregatorTest, DecreasingAckBreaksChain) {
  PushData(1, /*ack=*/1000);
  PushData(1 + 1448, /*ack=*/500);  // ack went backwards
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0]->SegmentCount(), 1u);
  FlushAll();
  EXPECT_EQ(delivered_.size(), 2u);
}

TEST_F(AggregatorTest, EqualAckChains) {
  PushData(1, /*ack=*/1000);
  PushData(1 + 1448, /*ack=*/1000);
  FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0]->SegmentCount(), 2u);
}

TEST_F(AggregatorTest, TimestampPresenceMustMatch) {
  PushData(1);  // with timestamp
  FrameOptions no_ts;
  no_ts.seq = 1 + 1448;
  no_ts.with_timestamp = false;
  Push(ToPacket(pool_, MakeFrame(no_ts, 1448)));
  // Chain broken: first delivered, second becomes a new partial.
  ASSERT_EQ(delivered_.size(), 1u);
  FlushAll();
  EXPECT_EQ(delivered_.size(), 2u);
}

TEST_F(AggregatorTest, TtlChangeBreaksChain) {
  PushData(1);
  FrameOptions rerouted;
  rerouted.seq = 1 + 1448;
  rerouted.ttl = 63;  // took a different path
  Push(ToPacket(pool_, MakeFrame(rerouted, 1448)));
  ASSERT_EQ(delivered_.size(), 1u);  // chain broken, first aggregate delivered
  FlushAll();
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[1]->view().ip.ttl, 63);
}

TEST_F(AggregatorTest, DuplicatePacketDoesNotChain) {
  PushData(1);
  PushData(1);  // exact duplicate: seq != next expected
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(aggregator_.stats().mismatch_flushes, 1u);
}

// ---------------------------------------------------------------------------
// Flows and ordering
// ---------------------------------------------------------------------------

TEST_F(AggregatorTest, FlowsAggregateIndependently) {
  PushData(1);
  FrameOptions other;
  other.src_port = 2222;  // different flow
  other.seq = 9000;
  Push(ToPacket(pool_, MakeFrame(other, 1448)));
  PushData(1 + 1448);
  other.seq = 9000 + 1448;
  Push(ToPacket(pool_, MakeFrame(other, 1448)));
  EXPECT_EQ(aggregator_.PendingFlows(), 2u);
  FlushAll();
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0]->SegmentCount(), 2u);
  EXPECT_EQ(delivered_[1]->SegmentCount(), 2u);
  // Flush order follows flow creation order.
  EXPECT_EQ(delivered_[0]->view().tcp.src_port, 10000);
  EXPECT_EQ(delivered_[1]->view().tcp.src_port, 2222);
}

TEST_F(AggregatorTest, BypassingPacketNeverOvertakesItsFlow) {
  PushData(1);
  PushData(1 + 1448);
  // A FIN for the same flow must be delivered after the partial aggregate.
  FrameOptions fin;
  fin.seq = 1 + 2 * 1448;
  fin.flags = kTcpAck | kTcpFin;
  Push(ToPacket(pool_, MakeFrame(fin, 5)));
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0]->SegmentCount(), 2u);            // partial first
  EXPECT_TRUE(delivered_[1]->view().tcp.Has(kTcpFin));        // then the FIN
}

TEST_F(AggregatorTest, BypassingPacketLeavesOtherFlowsPending) {
  PushData(1);  // flow A partial
  FrameOptions other;
  other.src_port = 2222;
  other.flags = kTcpAck | kTcpRst;
  other.seq = 1;
  Push(ToPacket(pool_, MakeFrame(other, 0)));  // flow B RST
  // Flow A's partial must NOT be flushed by flow B's bypass.
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_TRUE(delivered_[0]->view().tcp.Has(kTcpRst));
  EXPECT_EQ(aggregator_.PendingFlows(), 1u);
}

// ---------------------------------------------------------------------------
// Limits and edge cases
// ---------------------------------------------------------------------------

class AggregatorLimit1Test : public AggregatorTest {
 protected:
  AggregatorLimit1Test() : AggregatorTest(1) {}
};

TEST_F(AggregatorLimit1Test, LimitOneDeliversImmediatelyUnmodified) {
  FrameOptions options;
  options.seq = 77;
  const auto original = MakeFrame(options, 512);
  Push(ToPacket(pool_, original));
  ASSERT_EQ(delivered_.size(), 1u);  // no waiting at limit 1
  ASSERT_EQ(delivered_[0]->fragment_info.size(), 1u);
  EXPECT_EQ(delivered_[0]->fragment_info[0].seq, 77u);
  EXPECT_TRUE(std::equal(original.begin(), original.end(),
                         delivered_[0]->head().Bytes().begin()));
}

TEST_F(AggregatorTest, AggregateStopsBeforeIpLengthOverflow) {
  // 45 * 1448 + 52 would exceed the 16-bit IP total length; chain must break first.
  Aggregator big(64);
  for (uint32_t i = 0; i < 50; ++i) {
    FrameOptions options;
    options.seq = 1 + i * 1448;
    EXPECT_EQ(big.Push(ToPacket(pool_, MakeFrame(options, 1448)), delivered_), nullptr);
  }
  big.FlushAll(delivered_);
  for (const auto& skb : delivered_) {
    EXPECT_LE(skb->PayloadSize() + 52, 0xffffu);
    // The rewritten header must still parse with a valid length.
    EXPECT_EQ(skb->view().ip.total_length, 52 + skb->PayloadSize());
  }
}

TEST_F(AggregatorTest, VaryingSegmentSizesChainBySeq) {
  PushData(1, 1, 100);
  PushData(101, 1, 700);
  PushData(801, 1, 1448);
  FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0]->PayloadSize(), 100u + 700 + 1448);
}

TEST_F(AggregatorTest, StatsAddUp) {
  for (uint32_t i = 0; i < 25; ++i) {
    PushData(1 + i * 1448);
  }
  FrameOptions ack;
  ack.seq = 1 + 25 * 1448;
  Push(ToPacket(pool_, MakeFrame(ack, 0)));
  FlushAll();
  const auto& stats = aggregator_.stats();
  EXPECT_EQ(stats.pushed, 26u);
  EXPECT_EQ(stats.host_packets, delivered_.size());
  // All data packets accounted: one 20-aggregate + one 5-aggregate + one pure ack.
  ASSERT_EQ(delivered_.size(), 3u);
  EXPECT_EQ(delivered_[0]->SegmentCount() + delivered_[1]->SegmentCount(), 25u);
  EXPECT_EQ(stats.aggregates_delivered, 2u);
  EXPECT_EQ(stats.passthrough, 1u);
  // The 20-aggregate closed at the limit; the pure ACK closed the 5-aggregate ahead of
  // itself, which leaves FlushAll nothing to close.
  EXPECT_EQ(stats.limit_flushes, 1u);
  EXPECT_EQ(stats.bypass_flushes, 1u);
  EXPECT_EQ(stats.idle_flushes, 0u);
}

TEST_F(AggregatorTest, DatagramBoundedAtExactly16BitTotalLength) {
  // head_headers = 20 (IP) + 32 (TCP with timestamp) = 52, so payloads summing to
  // 65483 put the rewritten IP total length at exactly 0xffff — the largest legal
  // datagram. With jumbo MSS and a generous limit the 16-bit field would otherwise
  // silently wrap.
  constexpr size_t kHeaders = 52;
  constexpr size_t kFirst = 40000;
  constexpr size_t kSecond = 0xffff - kHeaders - kFirst;  // 25483
  PushData(1000, 1, kFirst);
  PushData(1000 + kFirst, 1, kSecond);
  EXPECT_EQ(aggregator_.stats().aggregated_segments, 1u);  // chained at the boundary
  // One more byte would overflow the field: the chain must close and the new
  // segment must start a fresh partial instead of appending.
  PushData(1000 + kFirst + kSecond, 1, 100);
  EXPECT_EQ(aggregator_.stats().mismatch_flushes, 1u);
  ASSERT_EQ(delivered_.size(), 1u);
  const SkBuff& skb = *delivered_.front();
  EXPECT_EQ(skb.SegmentCount(), 2u);
  EXPECT_EQ(skb.PayloadSize(), kFirst + kSecond);
  const auto bytes = skb.head().Bytes();
  EXPECT_EQ(LoadBe16(bytes.data() + skb.view().ip_offset + 2), 0xffff);
  EXPECT_TRUE(
      VerifyIpv4Checksum(bytes.subspan(skb.view().ip_offset, skb.view().ip.HeaderSize())));
  EXPECT_EQ(aggregator_.PendingFlows(), 1u);  // the 100-byte tail is a new partial
}

TEST_F(AggregatorTest, RandomizedPerFlowStreamIntegrity) {
  // Random mix of flows, sizes, and occasional ineligible packets; per-flow payload
  // concatenation must be preserved in order.
  Rng rng(7);
  constexpr int kFlows = 4;
  uint32_t next_seq[kFlows];
  std::vector<uint8_t> expected[kFlows];
  for (int f = 0; f < kFlows; ++f) {
    next_seq[f] = 1000u * static_cast<uint32_t>(f) + 1;
  }
  for (int i = 0; i < 400; ++i) {
    const int f = static_cast<int>(rng.NextBelow(kFlows));
    FrameOptions options;
    options.src_port = static_cast<uint16_t>(10000 + f);
    options.seq = next_seq[f];
    const size_t len = 1 + rng.NextBelow(1448);
    if (rng.NextBool(0.05)) {
      options.flags = kTcpAck | kTcpPsh;  // still eligible; exercise PSH
    }
    const bool ineligible = rng.NextBool(0.05);
    if (ineligible) {
      options.extra_options = {42, 4, 0, 0};  // unknown option: bypasses
    }
    Push(ToPacket(pool_, MakeFrame(options, len)));
    const auto payload = testutil::ExpectedPayload(options.seq, len);
    expected[f].insert(expected[f].end(), payload.begin(), payload.end());
    next_seq[f] += static_cast<uint32_t>(len);
    if (rng.NextBool(0.1)) {
      FlushAll();  // random idle points
    }
  }
  FlushAll();

  std::vector<uint8_t> actual[kFlows];
  for (const auto& skb : delivered_) {
    const int f = skb->view().tcp.src_port - 10000;
    ASSERT_GE(f, 0);
    ASSERT_LT(f, kFlows);
    AppendPayload(*skb, actual[f]);
  }
  for (int f = 0; f < kFlows; ++f) {
    EXPECT_EQ(actual[f], expected[f]) << "flow " << f;
  }
}

}  // namespace
}  // namespace tcprx
