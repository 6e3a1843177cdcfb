// Tests for the hardware models: link serialization and fault injection, NIC rx
// rings, checksum offload verdicts, interrupt signalling and adaptive moderation.

#include <gtest/gtest.h>

#include "src/buffer/packet.h"
#include "src/nic/link.h"
#include "src/nic/nic.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

// ---------------------------------------------------------------------------
// SimplexLink
// ---------------------------------------------------------------------------

TEST(Link, GigabitLineRateIsPaper81kPps) {
  // An MTU frame (1514 bytes + 24 wire overhead) at 1 Gb/s serializes in ~12.3 us,
  // i.e. ~81,274 packets per second — the figure the paper quotes in section 3.6.
  EventLoop loop;
  uint64_t delivered = 0;
  LinkConfig config;
  config.propagation_delay = SimDuration::FromNanos(0);
  SimplexLink link(config, loop, [&](std::vector<uint8_t>) { ++delivered; });
  const auto frame = MakeFrame(FrameOptions{}, 1448);  // 1514-byte frame
  ASSERT_EQ(frame.size(), 1514u);
  for (int i = 0; i < 100000; ++i) {
    link.Send(frame);
  }
  loop.RunUntil(SimTime::FromSeconds(1));
  EXPECT_NEAR(static_cast<double>(delivered), 81274.0, 200.0);
}

TEST(Link, SerializationQueuesBehindBusyTransmitter) {
  EventLoop loop;
  std::vector<SimTime> arrivals;
  LinkConfig config;
  config.propagation_delay = SimDuration::FromMicros(10);
  SimplexLink link(config, loop, [&](std::vector<uint8_t>) { arrivals.push_back(loop.Now()); });
  const auto frame = MakeFrame(FrameOptions{}, 1448);
  link.Send(frame);
  link.Send(frame);
  loop.RunToCompletion();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second frame arrives exactly one serialization time after the first.
  const uint64_t gap = arrivals[1].nanos() - arrivals[0].nanos();
  EXPECT_NEAR(static_cast<double>(gap), (1514.0 + 24) * 8, 10);
}

TEST(Link, SmallFramesPaddedToMinimum) {
  EventLoop loop;
  SimTime arrival;
  LinkConfig config;
  config.propagation_delay = SimDuration::FromNanos(0);
  SimplexLink link(config, loop, [&](std::vector<uint8_t>) { arrival = loop.Now(); });
  link.Send(std::vector<uint8_t>(10, 0));  // tiny frame
  loop.RunToCompletion();
  // 60 (min) + 24 overhead = 84 bytes = 672 ns at 1 Gb/s.
  EXPECT_EQ(arrival.nanos(), 672u);
}

TEST(Link, DropInjectionDropsApproximatelyTheConfiguredFraction) {
  EventLoop loop;
  uint64_t delivered = 0;
  LinkConfig config;
  config.drop_probability = 0.1;
  config.fault_seed = 42;
  SimplexLink link(config, loop, [&](std::vector<uint8_t>) { ++delivered; });
  for (int i = 0; i < 10000; ++i) {
    link.Send(std::vector<uint8_t>(100, 0));
  }
  loop.RunToCompletion();
  EXPECT_EQ(delivered + link.frames_dropped(), 10000u);
  EXPECT_NEAR(static_cast<double>(link.frames_dropped()), 1000.0, 150.0);
}

TEST(Link, DuplicationDeliversTwice) {
  EventLoop loop;
  uint64_t delivered = 0;
  LinkConfig config;
  config.duplicate_probability = 1.0;
  SimplexLink link(config, loop, [&](std::vector<uint8_t>) { ++delivered; });
  link.Send(std::vector<uint8_t>(100, 0));
  loop.RunToCompletion();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(link.frames_duplicated(), 1u);
}

TEST(Link, ReorderDelaysFrame) {
  EventLoop loop;
  std::vector<int> order;
  LinkConfig config;
  config.propagation_delay = SimDuration::FromNanos(0);
  config.reorder_delay = SimDuration::FromMicros(100);
  SimplexLink link(config, loop, [&](std::vector<uint8_t> f) { order.push_back(f[0]); });

  // First frame reordered (probability 1), then turn reordering off for the second.
  LinkConfig reorder_config = config;
  reorder_config.reorder_probability = 1.0;
  SimplexLink reorder_link(reorder_config, loop,
                           [&](std::vector<uint8_t> f) { order.push_back(f[0]); });
  reorder_link.Send(std::vector<uint8_t>(100, 1));
  link.Send(std::vector<uint8_t>(100, 2));
  loop.RunToCompletion();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // the non-reordered frame overtook
  EXPECT_EQ(order[1], 1);
}

TEST(Link, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    EventLoop loop;
    uint64_t delivered = 0;
    LinkConfig config;
    config.drop_probability = 0.3;
    config.fault_seed = seed;
    SimplexLink link(config, loop, [&](std::vector<uint8_t>) { ++delivered; });
    for (int i = 0; i < 1000; ++i) {
      link.Send(std::vector<uint8_t>(100, 0));
    }
    loop.RunToCompletion();
    return delivered;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---------------------------------------------------------------------------
// SimulatedNic
// ---------------------------------------------------------------------------

class NicTest : public ::testing::Test {
 protected:
  NicTest() : nic_(0, NicConfig{}, loop_, pool_) {
    nic_.set_on_rx_interrupt(0, [this] { ++interrupts_; });
  }

  EventLoop loop_;
  PacketPool pool_;
  SimulatedNic nic_;
  int interrupts_ = 0;
};

TEST_F(NicTest, ChecksumOffloadVerifiesGoodFrame) {
  nic_.DeliverFromWire(MakeFrame(FrameOptions{}, 100));
  PacketPtr p = nic_.PopRx(0);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->nic_checksum_verified);
  EXPECT_EQ(nic_.stats().rx_csum_good, 1u);
}

TEST_F(NicTest, ChecksumOffloadFlagsCorruptFrame) {
  auto frame = MakeFrame(FrameOptions{}, 100);
  frame[frame.size() - 1] ^= 0xff;  // corrupt payload
  nic_.DeliverFromWire(std::move(frame));
  PacketPtr p = nic_.PopRx(0);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->nic_checksum_verified);
  EXPECT_EQ(nic_.stats().rx_csum_bad, 1u);
}

TEST_F(NicTest, ZeroChecksumTrustedAsTxOffload) {
  FrameOptions options;
  options.fill_checksum = false;
  nic_.DeliverFromWire(MakeFrame(options, 100));
  PacketPtr p = nic_.PopRx(0);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->nic_checksum_verified);
}

TEST_F(NicTest, RingOverflowDrops) {
  NicConfig config;
  config.rx_ring_entries = 4;
  SimulatedNic small(1, config, loop_, pool_);
  for (int i = 0; i < 6; ++i) {
    small.DeliverFromWire(MakeFrame(FrameOptions{}, 10));
  }
  EXPECT_EQ(small.stats().rx_frames, 6u);
  EXPECT_EQ(small.stats().rx_dropped, 2u);
  EXPECT_EQ(small.RxQueued(0), 4u);
}

TEST_F(NicTest, InterruptFiresAfterDelay) {
  nic_.DeliverFromWire(MakeFrame(FrameOptions{}, 10));
  EXPECT_EQ(interrupts_, 0);
  loop_.RunUntil(SimTime::FromMicros(10));
  EXPECT_EQ(interrupts_, 1);
}

TEST_F(NicTest, NoInterruptInPollMode) {
  nic_.SetQueuePollMode(0, true);
  nic_.DeliverFromWire(MakeFrame(FrameOptions{}, 10));
  loop_.RunUntil(SimTime::FromMillis(1));
  EXPECT_EQ(interrupts_, 0);
  // Leaving poll mode with a queued frame re-raises the interrupt.
  nic_.SetQueuePollMode(0, false);
  loop_.RunUntil(SimTime::FromMillis(2));
  EXPECT_EQ(interrupts_, 1);
}

TEST_F(NicTest, ModerationDefersInterruptForBusyLink) {
  // Two frames back-to-back (closer than moderation_gap): the second arrival marks
  // the link busy; after draining, the next interrupt is deferred by the moderation
  // delay rather than the fast delay.
  nic_.DeliverFromWire(MakeFrame(FrameOptions{}, 10));
  loop_.RunUntil(SimTime::FromMicros(10));
  ASSERT_EQ(interrupts_, 1);
  while (!nic_.RxEmpty(0)) {
    nic_.PopRx(0);
  }
  // Burst: two arrivals 1 us apart.
  nic_.DeliverFromWire(MakeFrame(FrameOptions{}, 10));
  loop_.RunUntil(SimTime::FromMicros(11));
  while (!nic_.RxEmpty(0)) {
    nic_.PopRx(0);
  }
  const int before = interrupts_;
  nic_.DeliverFromWire(MakeFrame(FrameOptions{}, 10));  // gap ~1 us -> moderated
  loop_.RunUntil(SimTime::FromMicros(60));
  EXPECT_EQ(interrupts_, before) << "moderated interrupt should not fire yet";
  loop_.RunUntil(SimTime::FromMicros(400));
  EXPECT_EQ(interrupts_, before + 1);
}

TEST_F(NicTest, TransmitRequiresEgress) {
  EXPECT_DEATH(nic_.Transmit(std::vector<uint8_t>(10, 0)), "egress");
}

TEST_F(NicTest, TransmitCountsAndForwards) {
  uint64_t forwarded = 0;
  LinkConfig config;
  SimplexLink egress(config, loop_, [&](std::vector<uint8_t>) { ++forwarded; });
  nic_.AttachEgress(&egress);
  nic_.Transmit(MakeFrame(FrameOptions{}, 10));
  loop_.RunToCompletion();
  EXPECT_EQ(nic_.stats().tx_frames, 1u);
  EXPECT_EQ(forwarded, 1u);
}

}  // namespace
}  // namespace tcprx
