// Receive Aggregation engine tests: every eligibility rule of section 3.1, the
// chaining/rewrite mechanics of section 3.2, the Aggregation Limit of section 3.3,
// the work-conserving flush of section 3.5, and the correctness properties of
// section 3.6.

#include <gtest/gtest.h>

#include <deque>

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

// Appends a host packet's payload, head then fragments, to `out`.
void AppendPayload(const SkBuff& skb, std::vector<uint8_t>& out) {
  out.insert(out.end(), skb.head->Payload().begin(), skb.head->Payload().end());
  for (const PacketPtr& frag : skb.frags) {
    out.insert(out.end(), frag->Payload().begin(), frag->Payload().end());
  }
}

class AggregatorTest : public ::testing::Test {
 protected:
  explicit AggregatorTest(size_t limit = 20) : aggregator_(MakeConfig(limit), Sink()) {}

  static AggregatorConfig MakeConfig(size_t limit) {
    AggregatorConfig config;
    config.aggregation_limit = limit;
    return config;
  }

  Aggregator::DeliverFn Sink() {
    return [this](SkBuffPtr skb) { delivered_.push_back(std::move(skb)); };
  }

  // Pushes an in-sequence MTU data segment for the default flow.
  void PushData(uint32_t seq, uint32_t ack = 1, size_t len = 1448, uint16_t window = 65535,
                uint32_t ts = 100) {
    FrameOptions options;
    options.seq = seq;
    options.ack = ack;
    options.window = window;
    options.ts_value = ts;
    aggregator_.Push(ToPacket(pool_, MakeFrame(options, len)));
  }

  PacketPool pool_;
  std::deque<SkBuffPtr> delivered_;
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
  aggregator_.FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  const SkBuff& skb = *delivered_.front();
  EXPECT_EQ(skb.SegmentCount(), 3u);
  EXPECT_EQ(skb.PayloadSize(), 3u * 1448);
  EXPECT_EQ(skb.frags.size(), 2u);
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
  aggregator_.FlushAll();
  ASSERT_EQ(delivered_.size(), 3u);
  EXPECT_EQ(delivered_[2]->SegmentCount(), 1u);
  EXPECT_EQ(aggregator_.stats().limit_flushes, 2u);
}

TEST_F(AggregatorTest, SingletonFlushDeliversUnmodified) {
  FrameOptions options;
  options.seq = 500;
  const auto original = MakeFrame(options, 100);
  aggregator_.Push(ToPacket(pool_, original));
  aggregator_.FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  // Byte-identical frame, listed as its own one segment.
  EXPECT_TRUE(std::equal(original.begin(), original.end(),
                         delivered_.front()->head->Bytes().begin()));
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
  aggregator_.FlushAll();
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
  aggregator_.FlushAll();
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
    aggregator_.Push(ToPacket(pool_, MakeFrame(options, 1000)));
  }
  aggregator_.FlushAll();
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
  aggregator_.FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  const SkBuff& skb = *delivered_.front();
  EXPECT_TRUE(VerifyIpv4Checksum(
      skb.head->Bytes().subspan(skb.view().ip_offset, skb.view().ip.HeaderSize())));
}

TEST_F(AggregatorTest, AggregateMarkedChecksumVerified) {
  PushData(1);
  PushData(1 + 1448);
  aggregator_.FlushAll();
  EXPECT_TRUE(delivered_.front()->csum_verified);
}

TEST_F(AggregatorTest, FragmentMetadataRecordsEachSegment) {
  PushData(1, 100, 1448, 5000);
  PushData(1 + 1448, 150, 700, 5001);
  PushData(1 + 1448 + 700, 200, 1448, 5002);
  aggregator_.FlushAll();
  const SkBuff& skb = *delivered_.front();
  ASSERT_EQ(skb.fragment_info.size(), 3u);
  EXPECT_EQ(skb.fragment_info[0].seq, 1u);
  EXPECT_EQ(skb.fragment_info[0].ack, 100u);
  EXPECT_EQ(skb.fragment_info[0].payload_len, 1448u);
  EXPECT_EQ(skb.fragment_info[1].payload_len, 700u);
  EXPECT_EQ(skb.fragment_info[1].window, 5001);
  EXPECT_EQ(skb.fragment_info[2].ack, 200u);
}

TEST_F(AggregatorTest, PshOfLastFragmentPropagates) {
  PushData(1);
  FrameOptions options;
  options.seq = 1 + 1448;
  options.flags = kTcpAck | kTcpPsh;
  aggregator_.Push(ToPacket(pool_, MakeFrame(options, 1448)));
  aggregator_.FlushAll();
  EXPECT_TRUE(delivered_.front()->view().tcp.Has(kTcpPsh));
}

// ---------------------------------------------------------------------------
// Eligibility rules (section 3.1): each rule individually bypasses
// ---------------------------------------------------------------------------

TEST_F(AggregatorTest, PureAckBypasses) {
  PushData(1);
  FrameOptions ack_options;
  ack_options.seq = 1 + 1448;
  aggregator_.Push(ToPacket(pool_, MakeFrame(ack_options, 0)));
  // The pure ACK flushed the partial (order!) and then passed through.
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0]->PayloadSize(), 1448u);  // the partial, first
  EXPECT_EQ(delivered_[1]->PayloadSize(), 0u);     // then the ACK
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kZeroPayload)],
            1u);
}

TEST_F(AggregatorTest, MissingNicChecksumBypasses) {
  aggregator_.Push(ToPacket(pool_, MakeFrame(FrameOptions{}, 1448), /*csum_verified=*/false));
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
    aggregator_.Push(ToPacket(pool_, MakeFrame(options, flag == kTcpSyn ? 0 : 10)));
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
  aggregator_.Push(ToPacket(pool_, MakeFrame(options, 1448)));
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kBadOptions)], 1u);
}

TEST_F(AggregatorTest, UnknownOptionBypasses) {
  FrameOptions options;
  options.extra_options = {42, 4, 1, 2};
  aggregator_.Push(ToPacket(pool_, MakeFrame(options, 100)));
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kBadOptions)], 1u);
}

TEST_F(AggregatorTest, BadIpChecksumBypasses) {
  auto frame = MakeFrame(FrameOptions{}, 100);
  frame[14 + 8] ^= 0x40;  // corrupt TTL -> IP checksum now wrong
  aggregator_.Push(ToPacket(pool_, std::move(frame)));
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
  aggregator_.Push(ToPacket(pool_, std::move(frame)));
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(aggregator_.stats().bypass[static_cast<size_t>(AggrBypassReason::kIpFragment)], 1u);
}

TEST_F(AggregatorTest, NonTcpFrameGoesToRawPath) {
  std::vector<PacketPtr> raw;
  aggregator_.set_deliver_raw([&](PacketPtr p) { raw.push_back(std::move(p)); });
  auto frame = MakeFrame(FrameOptions{}, 10);
  StoreBe16(frame.data() + 12, 0x0806);  // ARP ethertype
  aggregator_.Push(ToPacket(pool_, std::move(frame)));
  EXPECT_EQ(raw.size(), 1u);
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(aggregator_.stats().raw_delivered, 1u);
}

TEST_F(AggregatorTest, NonTcpFrameDroppedWithoutRawHandler) {
  auto frame = MakeFrame(FrameOptions{}, 10);
  frame.resize(10);  // hopelessly truncated
  aggregator_.Push(ToPacket(pool_, std::move(frame)));
  EXPECT_EQ(aggregator_.stats().raw_dropped, 1u);
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
  aggregator_.FlushAll();
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[1]->view().tcp.seq, 1u + 5 * 1448);
}

TEST_F(AggregatorTest, DecreasingAckBreaksChain) {
  PushData(1, /*ack=*/1000);
  PushData(1 + 1448, /*ack=*/500);  // ack went backwards
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0]->SegmentCount(), 1u);
  aggregator_.FlushAll();
  EXPECT_EQ(delivered_.size(), 2u);
}

TEST_F(AggregatorTest, EqualAckChains) {
  PushData(1, /*ack=*/1000);
  PushData(1 + 1448, /*ack=*/1000);
  aggregator_.FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0]->SegmentCount(), 2u);
}

TEST_F(AggregatorTest, TimestampPresenceMustMatch) {
  PushData(1);  // with timestamp
  FrameOptions no_ts;
  no_ts.seq = 1 + 1448;
  no_ts.with_timestamp = false;
  aggregator_.Push(ToPacket(pool_, MakeFrame(no_ts, 1448)));
  // Chain broken: first delivered, second becomes a new partial.
  ASSERT_EQ(delivered_.size(), 1u);
  aggregator_.FlushAll();
  EXPECT_EQ(delivered_.size(), 2u);
}

TEST_F(AggregatorTest, TtlChangeBreaksChain) {
  PushData(1);
  FrameOptions rerouted;
  rerouted.seq = 1 + 1448;
  rerouted.ttl = 63;  // took a different path
  aggregator_.Push(ToPacket(pool_, MakeFrame(rerouted, 1448)));
  ASSERT_EQ(delivered_.size(), 1u);  // chain broken, first aggregate delivered
  aggregator_.FlushAll();
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
  aggregator_.Push(ToPacket(pool_, MakeFrame(other, 1448)));
  PushData(1 + 1448);
  other.seq = 9000 + 1448;
  aggregator_.Push(ToPacket(pool_, MakeFrame(other, 1448)));
  EXPECT_EQ(aggregator_.PendingFlows(), 2u);
  aggregator_.FlushAll();
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
  aggregator_.Push(ToPacket(pool_, MakeFrame(fin, 5)));
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
  aggregator_.Push(ToPacket(pool_, MakeFrame(other, 0)));  // flow B RST
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
  aggregator_.Push(ToPacket(pool_, original));
  ASSERT_EQ(delivered_.size(), 1u);  // no waiting at limit 1
  ASSERT_EQ(delivered_[0]->fragment_info.size(), 1u);
  EXPECT_EQ(delivered_[0]->fragment_info[0].seq, 77u);
  EXPECT_TRUE(std::equal(original.begin(), original.end(),
                         delivered_[0]->head->Bytes().begin()));
}

TEST_F(AggregatorTest, AggregateStopsBeforeIpLengthOverflow) {
  // 45 * 1448 + 52 would exceed the 16-bit IP total length; chain must break first.
  Aggregator big(MakeConfig(64), Sink());
  for (uint32_t i = 0; i < 50; ++i) {
    FrameOptions options;
    options.seq = 1 + i * 1448;
    big.Push(ToPacket(pool_, MakeFrame(options, 1448)));
  }
  big.FlushAll();
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
  aggregator_.FlushAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0]->PayloadSize(), 100u + 700 + 1448);
}

TEST_F(AggregatorTest, StatsAddUp) {
  for (uint32_t i = 0; i < 25; ++i) {
    PushData(1 + i * 1448);
  }
  FrameOptions ack;
  ack.seq = 1 + 25 * 1448;
  aggregator_.Push(ToPacket(pool_, MakeFrame(ack, 0)));
  aggregator_.FlushAll();
  const auto& stats = aggregator_.stats();
  EXPECT_EQ(stats.pushed, 26u);
  EXPECT_EQ(stats.host_packets, delivered_.size());
  // All data packets accounted: one 20-aggregate + one 5-aggregate + one pure ack.
  ASSERT_EQ(delivered_.size(), 3u);
  EXPECT_EQ(delivered_[0]->SegmentCount() + delivered_[1]->SegmentCount(), 25u);
  EXPECT_EQ(stats.aggregates_delivered, 2u);
  EXPECT_EQ(stats.passthrough, 1u);
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
  const auto bytes = skb.head->Bytes();
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
    aggregator_.Push(ToPacket(pool_, MakeFrame(options, len)));
    const auto payload = testutil::ExpectedPayload(options.seq, len);
    expected[f].insert(expected[f].end(), payload.begin(), payload.end());
    next_seq[f] += static_cast<uint32_t>(len);
    if (rng.NextBool(0.1)) {
      aggregator_.FlushAll();  // random idle points
    }
  }
  aggregator_.FlushAll();

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
