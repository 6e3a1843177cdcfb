// Tests for packet buffers, the packet pool, and the SkBuff fragment chain.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/wire/frame_buffer.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

// The fields a reader of Packet::view relies on, compared against a fresh parse.
void ExpectSameView(const TcpFrameView& got, const TcpFrameView& want) {
  EXPECT_EQ(got.eth.src, want.eth.src);
  EXPECT_EQ(got.eth.dst, want.eth.dst);
  EXPECT_EQ(got.ip.src, want.ip.src);
  EXPECT_EQ(got.ip.dst, want.ip.dst);
  EXPECT_EQ(got.ip.total_length, want.ip.total_length);
  EXPECT_EQ(got.ip.ttl, want.ip.ttl);
  EXPECT_EQ(got.tcp.src_port, want.tcp.src_port);
  EXPECT_EQ(got.tcp.dst_port, want.tcp.dst_port);
  EXPECT_EQ(got.tcp.seq, want.tcp.seq);
  EXPECT_EQ(got.tcp.ack, want.tcp.ack);
  EXPECT_EQ(got.tcp.flags, want.tcp.flags);
  EXPECT_EQ(got.tcp.window, want.tcp.window);
  EXPECT_EQ(got.tcp.raw_options, want.tcp.raw_options);
  EXPECT_EQ(got.tcp.timestamp.has_value(), want.tcp.timestamp.has_value());
  EXPECT_EQ(got.ip_offset, want.ip_offset);
  EXPECT_EQ(got.tcp_offset, want.tcp_offset);
  EXPECT_EQ(got.payload_offset, want.payload_offset);
  EXPECT_EQ(got.payload_size, want.payload_size);
}

TEST(PacketPool, AllocateCopiesBytes) {
  PacketPool pool;
  const std::vector<uint8_t> data = {1, 2, 3, 4};
  PacketPtr p = pool.AllocateMoved(CopyFrame(data));
  EXPECT_EQ(p->data, data);
  EXPECT_FALSE(p->view.has_value());  // not a TCP/IPv4 frame
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().live, 1u);
}

TEST(PacketPool, AllocateMovedTakesOwnership) {
  PacketPool pool;
  std::vector<uint8_t> data = {9, 8, 7};
  const uint8_t* raw = data.data();
  PacketPtr p = pool.AllocateMoved(std::move(data));
  EXPECT_EQ(p->data.data(), raw);  // no copy
}

TEST(PacketPool, AllocateParsesTcpFrame) {
  PacketPool pool;
  FrameOptions options;
  options.seq = 42;
  const std::vector<uint8_t> frame = MakeFrame(options, 64);
  const auto fresh = ParseTcpFrame(frame);
  ASSERT_TRUE(fresh.has_value());

  PacketPtr copied = pool.AllocateMoved(CopyFrame(frame));
  ASSERT_TRUE(copied->view.has_value());
  ExpectSameView(*copied->view, *fresh);

  PacketPtr moved = pool.AllocateMoved(std::vector<uint8_t>(frame));
  ASSERT_TRUE(moved->view.has_value());
  ExpectSameView(*moved->view, *fresh);
  const auto expected = testutil::ExpectedPayload(42, 64);
  EXPECT_TRUE(std::ranges::equal(moved->Payload(), expected));
}

TEST(PacketPool, RecyclesFreedPackets) {
  PacketPool pool;
  Packet* first;
  {
    PacketPtr p = pool.AllocateMoved(std::vector<uint8_t>(64, 0));
    first = p.get();
  }
  EXPECT_EQ(pool.stats().frees, 1u);
  EXPECT_EQ(pool.stats().live, 0u);
  PacketPtr q = pool.AllocateMoved(std::vector<uint8_t>(64, 0));
  EXPECT_EQ(q.get(), first);  // same object reused
  EXPECT_EQ(pool.stats().allocations, 2u);
}

TEST(PacketPool, ResetsReceiveMetadataOnReuse) {
  PacketPool pool;
  {
    PacketPtr p = pool.AllocateMoved(std::vector<uint8_t>(10, 0));
    p->nic_checksum_verified = true;
  }
  PacketPtr q = pool.AllocateMoved(std::vector<uint8_t>(10, 0));
  EXPECT_FALSE(q->nic_checksum_verified);
}

TEST(PacketPool, RecycledPacketNeverKeepsStaleView) {
  PacketPool pool;
  Packet* first;
  {
    PacketPtr p = pool.AllocateMoved(MakeFrame(FrameOptions{}, 100));
    ASSERT_TRUE(p->view.has_value());
    first = p.get();
  }
  {
    PacketPtr garbage = pool.AllocateMoved(std::vector<uint8_t>(64, 0xff));
    ASSERT_EQ(garbage.get(), first);
    EXPECT_FALSE(garbage->view.has_value());
  }
  FrameOptions options;
  options.seq = 77;
  options.src_port = 4321;
  const std::vector<uint8_t> frame = MakeFrame(options, 300);
  PacketPtr again = pool.AllocateMoved(CopyFrame(frame));
  ASSERT_EQ(again.get(), first);
  ASSERT_TRUE(again->view.has_value());
  const auto fresh = ParseTcpFrame(frame);
  ASSERT_TRUE(fresh.has_value());
  ExpectSameView(*again->view, *fresh);
}

TEST(PacketPool, RecycledViewEmptiesOnTruncatedOrNonTcpFrame) {
  PacketPool pool;
  Packet* first;
  {
    PacketPtr p = pool.AllocateMoved(MakeFrame(FrameOptions{}, 100));
    ASSERT_TRUE(p->view.has_value());
    first = p.get();
  }
  {
    // Cut inside the TCP header: Ethernet and IPv4 parse, TCP does not.
    std::vector<uint8_t> truncated = MakeFrame(FrameOptions{}, 100);
    truncated.resize(14 + 20 + 10);
    PacketPtr p = pool.AllocateMoved(CopyFrame(truncated));
    ASSERT_EQ(p.get(), first);
    EXPECT_FALSE(p->view.has_value());
  }
  {
    PacketPtr p = pool.AllocateMoved(MakeFrame(FrameOptions{}, 100));
    ASSERT_EQ(p.get(), first);
    ASSERT_TRUE(p->view.has_value());
  }
  {
    std::vector<uint8_t> udp = MakeFrame(FrameOptions{}, 100);
    udp[14 + 9] = 17;
    PacketPtr p = pool.AllocateMoved(std::move(udp));
    ASSERT_EQ(p.get(), first);
    EXPECT_FALSE(p->view.has_value());
  }
}

TEST(SkBuff, WrapParsesTcpFrame) {
  PacketPool pool;
  FrameOptions options;
  options.seq = 42;
  SkBuffPtr skb = SkBuff::Wrap(pool.AllocateMoved(MakeFrame(options, 64)));
  ASSERT_NE(skb, nullptr);
  EXPECT_EQ(skb->view().tcp.seq, 42u);
  EXPECT_EQ(skb->PayloadSize(), 64u);
  EXPECT_EQ(skb->SegmentCount(), 1u);
}

TEST(SkBuff, WrapListsTheHeadAsOneSegment) {
  PacketPool pool;
  FrameOptions options;
  options.seq = 7000;
  options.ack = 123456;
  options.window = 4321;
  for (int round = 0; round < 2; ++round) {  // the second Wrap reuses a recycled SkBuff
    SkBuffPtr skb = SkBuff::Wrap(pool.AllocateMoved(MakeFrame(options, 300)));
    ASSERT_NE(skb, nullptr);
    ASSERT_EQ(skb->fragment_info.size(), 1u);
    const FragmentInfo& entry = skb->fragment_info[0];
    EXPECT_EQ(entry.seq, skb->view().tcp.seq);
    EXPECT_EQ(entry.ack, skb->view().tcp.ack);
    EXPECT_EQ(entry.window, skb->view().tcp.window);
    EXPECT_EQ(entry.payload_len, skb->view().payload_size);
    EXPECT_EQ(entry.seq, 7000u);
    EXPECT_EQ(entry.ack, 123456u);
    EXPECT_EQ(entry.window, 4321);
    EXPECT_EQ(entry.payload_len, 300u);
  }
}

TEST(SkBuff, WrapRejectsGarbage) {
  PacketPool pool;
  const std::vector<uint8_t> garbage(64, 0xff);
  EXPECT_EQ(SkBuff::Wrap(pool.AllocateMoved(CopyFrame(garbage))), nullptr);
}

TEST(SkBuff, FragmentChainPayload) {
  PacketPool pool;
  FrameOptions head_options;
  head_options.seq = 1;
  SkBuffPtr skb = SkBuff::Wrap(pool.AllocateMoved(MakeFrame(head_options, 100)));
  ASSERT_NE(skb, nullptr);

  // Chain two payload fragments from other frames.
  for (uint32_t i = 0; i < 2; ++i) {
    FrameOptions frag_options;
    frag_options.seq = 101 + i * 50;
    skb->frames.push_back(pool.AllocateMoved(MakeFrame(frag_options, 50)));
  }
  EXPECT_EQ(skb->PayloadSize(), 200u);

  std::vector<uint8_t> assembled;
  for (const PacketPtr& frame : skb->frames) {
    assembled.insert(assembled.end(), frame->Payload().begin(), frame->Payload().end());
  }
  ASSERT_EQ(assembled.size(), 200u);
  // Head payload bytes then fragment bytes, in order.
  const auto head_expected = testutil::ExpectedPayload(1, 100);
  EXPECT_TRUE(std::equal(head_expected.begin(), head_expected.end(), assembled.begin()));
  const auto frag1_expected = testutil::ExpectedPayload(101, 50);
  EXPECT_TRUE(std::equal(frag1_expected.begin(), frag1_expected.end(),
                         assembled.begin() + 100));
}

TEST(SkBuff, SegmentCountFollowsFragmentInfo) {
  PacketPool pool;
  SkBuffPtr skb = SkBuff::Wrap(pool.AllocateMoved(MakeFrame(FrameOptions{}, 10)));
  ASSERT_NE(skb, nullptr);
  EXPECT_EQ(skb->SegmentCount(), 1u);
  skb->fragment_info.push_back(FragmentInfo{11, 1, 100, 10});
  skb->fragment_info.push_back(FragmentInfo{21, 1, 100, 10});
  EXPECT_EQ(skb->SegmentCount(), 3u);
}

TEST(PacketPoolDeathTest, LeakDetectedAtDestruction) {
  EXPECT_DEATH(
      {
        PacketPtr leaked;
        PacketPtr also_leaked;
        {
          PacketPool pool;
          leaked = pool.AllocateMoved(std::vector<uint8_t>(1, 0));
          also_leaked = pool.AllocateMoved(std::vector<uint8_t>(1, 0));
          // pool destroyed with two live packets
        }
      },
      "packets leaked past pool destruction: 2\n");
}

}  // namespace
}  // namespace tcprx
