// Tests for the hardware models: link serialization and fault injection, NIC rx
// rings, checksum offload verdicts, interrupt signalling and adaptive moderation.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/buffer/packet.h"
#include "src/nic/link.h"
#include "src/nic/nic.h"
#include "src/util/harness_counters.h"
#include "src/util/rng.h"
#include "src/wire/raw_view.h"
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
    link.Send(std::vector<uint8_t>(frame));
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
  link.Send(std::vector<uint8_t>(frame));
  link.Send(std::vector<uint8_t>(frame));
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

TEST(Link, BurstDropsTheLastFramesOfEachPeriod) {
  // A burst as long as its period drops every frame; a shorter one the period's tail.
  for (const auto& [length, delivered_frames] :
       {std::pair<uint64_t, uint64_t>{3, 0}, std::pair<uint64_t, uint64_t>{2, 4}}) {
    EventLoop loop;
    uint64_t delivered = 0;
    LinkConfig config;
    config.burst_drop_period = 3;
    config.burst_drop_length = length;
    SimplexLink link(config, loop, [&](std::vector<uint8_t>) { ++delivered; });
    for (int i = 0; i < 12; ++i) {
      link.Send(std::vector<uint8_t>(100, 0));
    }
    loop.RunToCompletion();
    EXPECT_EQ(delivered, delivered_frames) << "length " << length;
    EXPECT_EQ(link.frames_dropped(), 12 - delivered_frames) << "length " << length;
  }
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

// Arrival times and bytes of every frame a faulty link delivers, folded into one
// FNV-1a hash, plus the fault counters.
struct FaultyLinkTrace {
  uint64_t delivered = 0;
  uint64_t hash = 0xcbf29ce484222325ull;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t corrupted = 0;
};

FaultyLinkTrace RunFaultyLink() {
  EventLoop loop;
  FaultyLinkTrace trace;
  auto mix = [&trace](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      trace.hash = (trace.hash ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  LinkConfig config;
  config.drop_probability = 0.05;
  config.duplicate_probability = 0.05;
  config.reorder_probability = 0.1;
  config.corrupt_probability = 0.05;
  config.fault_seed = 42;
  SimplexLink link(config, loop, [&](std::vector<uint8_t> frame) {
    ++trace.delivered;
    mix(loop.Now().nanos());
    mix(frame.size());
    for (const uint8_t b : frame) {
      mix(b);
    }
  });
  for (uint64_t i = 0; i < 400; ++i) {
    // Sends every 5 us: MTU frames take 12.3 us, so a backlog builds and drains.
    loop.ScheduleAt(SimTime::FromNanos(i * 5000), [&link, i] {
      std::vector<uint8_t> frame(40 + (i * 37) % 1475);
      for (size_t j = 0; j < frame.size(); ++j) {
        frame[j] = static_cast<uint8_t>(i * 131 + j * 7);
      }
      link.Send(std::move(frame));
    });
  }
  loop.RunToCompletion();
  trace.dropped = link.frames_dropped();
  trace.duplicated = link.frames_duplicated();
  trace.reordered = link.frames_reordered();
  trace.corrupted = link.frames_corrupted();
  return trace;
}

TEST(Link, FaultyDeliverySequenceIsPinned) {
  // Frames in flight wait in the link's wire queue behind one wakeup; the arrival
  // times, the order (a duplicate lands 1 ns after its original) and the bytes must
  // match the sequence a link that boxed each frame into its own event delivered.
  const FaultyLinkTrace trace = RunFaultyLink();
  EXPECT_EQ(trace.delivered, 404u);
  EXPECT_EQ(trace.hash, 12544534075700755838ull);
  EXPECT_EQ(trace.dropped, 15u);
  EXPECT_EQ(trace.duplicated, 19u);
  EXPECT_EQ(trace.reordered, 40u);
  EXPECT_EQ(trace.corrupted, 19u);
}

TEST(Link, ReorderAndDuplicationKeepPerFrameEventOrder) {
  // Most frames are held back or duplicated, so frames keep overtaking the head of the
  // wire queue. Each must still run in the event-order slot its own arrival event
  // would have taken when it was sent. Right after each Send, probes are scheduled at
  // every time that frame could arrive; per-frame events would run the frame before
  // a probe at its time, and both in (time, send order) among everything else.
  constexpr uint64_t kFrames = 600;
  const SimDuration reorder_delay = SimDuration::FromMicros(30);
  const SimDuration one_ns = SimDuration::FromNanos(1);
  EventLoop loop;
  LinkConfig config;
  config.reorder_probability = 0.5;
  config.duplicate_probability = 0.5;
  config.reorder_delay = reorder_delay;
  config.fault_seed = 99;

  // One record per callback run. `rank` orders the slots one Send takes: the copy of
  // a duplicated frame reserves first (0), then the frame (1), then its probes (2-5).
  struct Run {
    SimTime at;
    uint64_t frame;
    int rank;
  };
  std::vector<Run> runs;
  std::vector<SimTime> base(kFrames);  // arrival without a reorder delay
  SimplexLink link(config, loop, [&](std::vector<uint8_t> bytes) {
    runs.push_back(Run{loop.Now(), bytes[0] | (uint64_t{bytes[1]} << 8), -1});
  });
  Rng rng(5);
  SimTime send_at;
  for (uint64_t i = 0; i < kFrames; ++i) {
    // A third of the frames go out at the same instant as the one before.
    if (rng.NextBelow(3) != 0) {
      send_at += SimDuration::FromNanos(rng.NextBelow(20000));
    }
    loop.ScheduleAt(send_at, [&, i] {
      std::vector<uint8_t> bytes(64 + (i * 97) % 1400);
      bytes[0] = static_cast<uint8_t>(i);
      bytes[1] = static_cast<uint8_t>(i >> 8);
      link.Send(std::move(bytes));
      base[i] = link.busy_until() + config.propagation_delay;
      const SimTime probes[] = {base[i], base[i] + one_ns, base[i] + reorder_delay,
                                base[i] + reorder_delay + one_ns};
      for (int k = 0; k < 4; ++k) {
        loop.ScheduleAt(probes[k],
                        [&runs, &loop, i, k] { runs.push_back(Run{loop.Now(), i, 2 + k}); });
      }
    });
  }
  loop.RunToCompletion();
  EXPECT_GT(link.frames_reordered(), kFrames / 3);
  EXPECT_GT(link.frames_duplicated(), kFrames / 3);

  // Every frame arrives at its base time or one reorder delay later; a copy 1 ns after.
  std::vector<int> deliveries(kFrames, 0);
  uint64_t overtaken = 0;
  uint64_t last_frame = 0;
  for (Run& run : runs) {
    if (run.rank != -1) {
      continue;
    }
    ASSERT_LT(run.frame, kFrames);
    const SimTime b = base[run.frame];
    const bool is_copy = ++deliveries[run.frame] == 2;
    const SimDuration shift = is_copy ? one_ns : SimDuration::FromNanos(0);
    EXPECT_TRUE(run.at == b + shift || run.at == b + reorder_delay + shift) << run.frame;
    run.rank = is_copy ? 0 : 1;
    overtaken += run.frame < last_frame ? 1 : 0;
    last_frame = run.frame;
  }
  for (uint64_t i = 0; i < kFrames; ++i) {
    EXPECT_GE(deliveries[i], 1) << i;
  }
  EXPECT_GT(overtaken, kFrames / 10);

  std::vector<Run> expected = runs;
  std::stable_sort(expected.begin(), expected.end(), [](const Run& a, const Run& b) {
    return std::tie(a.at, a.frame, a.rank) < std::tie(b.at, b.frame, b.rank);
  });
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_TRUE(runs[i].at == expected[i].at && runs[i].frame == expected[i].frame &&
                runs[i].rank == expected[i].rank)
        << "run " << i << ": frame " << runs[i].frame << " rank " << runs[i].rank << " at "
        << runs[i].at.nanos() << " ns, expected frame " << expected[i].frame << " rank "
        << expected[i].rank << " at " << expected[i].at.nanos() << " ns";
  }
}

TEST(Link, TeardownWithFramesInFlightFreesThem) {
  // The sanitizer build's leak check fails this test if a parked frame leaks.
  const auto frame = MakeFrame(FrameOptions{}, 1448);
  LinkConfig config;
  config.duplicate_probability = 0.5;
  {
    EventLoop loop;
    SimplexLink link(config, loop, [](std::vector<uint8_t>) { FAIL() << "delivered"; });
    for (int i = 0; i < 50; ++i) {
      link.Send(std::vector<uint8_t>(frame));
    }
    // Duplicates land behind their originals, so only the head's wakeup is queued.
    EXPECT_EQ(loop.PendingEvents(), 1u);
    EXPECT_GE(link.frames_in_flight(), 50u);
  }  // the link goes first, then the loop with its events
  {
    auto loop = std::make_unique<EventLoop>();
    SimplexLink link(config, *loop, [](std::vector<uint8_t>) { FAIL() << "delivered"; });
    for (int i = 0; i < 50; ++i) {
      link.Send(std::vector<uint8_t>(frame));
    }
    loop.reset();  // the loop goes first
  }
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
  for (size_t i = 0; i < kRxRingEntries + 2; ++i) {
    nic_.DeliverFromWire(MakeFrame(FrameOptions{}, 10));
  }
  EXPECT_EQ(nic_.stats().rx_frames, kRxRingEntries + 2);
  EXPECT_EQ(nic_.stats().rx_dropped, 2u);
  EXPECT_EQ(nic_.RxQueued(0), kRxRingEntries);
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
  // Two frames back-to-back (closer than kModerationGap): the second arrival marks
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

TEST(NicDeathTest, RefusesZeroRxQueues) {
  EventLoop loop;
  PacketPool pool;
  NicConfig config;
  config.num_rx_queues = 0;
  EXPECT_DEATH(SimulatedNic(0, config, loop, pool), "num_rx_queues must be >= 1");
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

// ---------------------------------------------------------------------------
// A polled NIC pulling its link
// ---------------------------------------------------------------------------

// The NIC side of a pulled-versus-pushed schedule: its rx queues, steering and
// interrupt moderation, which of its queues the scripted driver owns, and whether that
// driver pauses long enough in poll mode for the rings to overflow.
struct PollingBedConfig {
  size_t queues = 2;
  bool rss = false;  // off: frames are sprayed round-robin
  SimDuration moderation_delay = SimDuration::FromMicros(10);
  size_t polled_queues = 2;      // the driver owns queues 0..polled_queues-1
  std::vector<uint16_t> ports;   // the flows' source ports; empty: one flow
  bool pauses = true;
};

// A 10 Gb/s link with reordered, duplicated and corrupted frames feeding a multi-queue
// NIC, drained by a scripted polling driver. The driver puts its queues in poll mode
// at an interrupt and runs its first step in place when it can, pops one frame per
// queue per step and runs its next step in place when it can; it may pause long
// enough for the rings to overflow, and it leaves poll mode in the middle of bursts as
// well as when the rings run dry, queue 0 a little before the others. Run pulled (the
// NIC takes its frames off the link while every queue polls or has its interrupt
// pending) or pushed (one wakeup per frame), the bed must see exactly the same things:
// the log holds each interrupt's and step's slot, each frame popped, and the final
// stats and rings.
class PollingBed final : public EventLoop::Target {
 public:
  PollingBed(const PollingBedConfig& config, bool pulled)
      : config_(config),
        nic_(0, NicConfigFor(config), loop_, pool_),
        link_(LinkConfigFor(), loop_,
              [this](std::vector<uint8_t>&& frame) { nic_.DeliverFromWire(std::move(frame)); }) {
    if (pulled) {
      nic_.AttachIngress(&link_);
    }
    for (size_t q = 0; q < config_.queues; ++q) {
      nic_.set_on_rx_interrupt(q, [this, q] { OnInterrupt(q); });
    }
  }

  std::vector<std::string> Run() {
    // Bursts of 700 back-to-back MTU frames, 1 ms apart.
    for (uint32_t burst = 0; burst < 6; ++burst) {
      loop_.ScheduleAt(SimTime::FromMicros(1000 * burst), [this, burst] {
        for (uint32_t i = 0; i < 700; ++i) {
          FrameOptions options;
          options.seq = burst * 700 + i;
          if (!config_.ports.empty()) {
            options.src_port = config_.ports[i % config_.ports.size()];
          }
          link_.Send(MakeFrame(options, 1448));
        }
      });
    }
    loop_.RunUntil(SimTime::FromMicros(3500));  // mid-burst
    nic_.TakeDueFrames();
    Log("edge", loop_.Current());
    loop_.RunUntil(SimTime::FromMillis(20));
    const SimulatedNic::Stats& stats = nic_.stats();
    log_.push_back("rx " + std::to_string(stats.rx_frames) + " dropped " +
                   std::to_string(stats.rx_dropped) + " good " +
                   std::to_string(stats.rx_csum_good) + " bad " +
                   std::to_string(stats.rx_csum_bad) + " in flight " +
                   std::to_string(link_.frames_in_flight()));
    for (size_t q = 0; q < config_.queues; ++q) {
      log_.push_back("queue " + std::to_string(q) + " rx " +
                     std::to_string(nic_.rx_frames_on_queue(q)));
      while (!nic_.RxEmpty(q)) {
        Pop(q);
      }
    }
    return log_;
  }

  const SimplexLink& link() const { return link_; }
  SimulatedNic& nic() { return nic_; }
  uint64_t exits_with_frames() const { return exits_with_frames_; }

 private:
  static NicConfig NicConfigFor(const PollingBedConfig& bed) {
    NicConfig config;
    config.num_rx_queues = bed.queues;
    config.rss.enabled = bed.rss;
    config.moderation_delay = bed.moderation_delay;
    return config;
  }
  static LinkConfig LinkConfigFor() {
    LinkConfig config;
    config.bits_per_second = 10'000'000'000;
    config.reorder_probability = 0.1;
    config.reorder_delay = SimDuration::FromMicros(5);
    config.duplicate_probability = 0.05;
    config.corrupt_probability = 0.01;
    config.fault_seed = 31;
    return config;
  }

  void Log(const std::string& what, EventLoop::Slot slot) {
    log_.push_back(what + " " + std::to_string(slot.when.nanos()) + "/" +
                   std::to_string(slot.seq));
  }

  void Pop(size_t q) {
    const PacketPtr p = nic_.PopRx(q);
    log_.push_back("pop " + std::to_string(q) + " seq " +
                   (p->view.has_value() ? std::to_string(p->view->tcp.seq) : "?") +
                   (p->nic_checksum_verified ? "" : " bad"));
  }

  void OnInterrupt(size_t q) {
    Log("irq" + std::to_string(q), loop_.Current());
    if (polling_ || q >= config_.polled_queues) {
      return;
    }
    polling_ = true;
    for (size_t i = 0; i < config_.polled_queues; ++i) {
      nic_.SetQueuePollMode(i, true);
    }
    const EventLoop::Slot first = loop_.Reserve(loop_.Now() + SimDuration::FromMicros(3));
    if (loop_.RunInPlace(first)) {
      Steps();
    } else {
      loop_.QueueAt(first, *this);
    }
  }

  void Fire(EventLoop::Slot /*slot*/) override { Steps(); }

  void Steps() {
    for (;;) {
      Log("step", loop_.Current());
      ++steps_;
      bool any = false;
      for (size_t q = 0; q < config_.polled_queues; ++q) {
        if (!nic_.RxEmpty(q)) {
          Pop(q);
          any = true;
        }
      }
      if (!any || steps_ % 53 == 0) {
        // The other queues leave poll mode a little later: meanwhile queue 0 takes
        // interrupts again while they still poll.
        exits_with_frames_ += any ? 1 : 0;
        polling_ = false;
        nic_.SetQueuePollMode(0, false);
        loop_.ScheduleAt(loop_.Now() + SimDuration::FromMicros(4), [this] {
          for (size_t q = 1; q < config_.polled_queues; ++q) {
            nic_.SetQueuePollMode(q, false);
          }
        });
        return;
      }
      const SimTime next =
          loop_.Now() + (config_.pauses && steps_ % 97 == 0
                             ? SimDuration::FromMicros(800)
                             : SimDuration::FromNanos(300 + 700 * (steps_ % 3)));
      const EventLoop::Slot slot = loop_.Reserve(next);
      if (!loop_.RunInPlace(slot)) {
        loop_.QueueAt(slot, *this);
        return;
      }
    }
  }

  PollingBedConfig config_;
  EventLoop loop_;
  PacketPool pool_;
  SimulatedNic nic_;
  SimplexLink link_;
  bool polling_ = false;
  uint64_t steps_ = 0;
  uint64_t exits_with_frames_ = 0;
  std::vector<std::string> log_;
};

// Runs `config` pulled and pushed; expects identical logs and returns the pulled bed's
// frames pulled and steps in place, and the pushed bed's steps in place.
struct PulledAndPushed {
  uint64_t frames_pulled = 0;
  uint64_t pulled_steps = 0;
  uint64_t pushed_steps = 0;
};
PulledAndPushed ExpectPulledSeesWhatPushedSees(const PollingBedConfig& config,
                                               const std::function<void(PollingBed&)>& check) {
  PulledAndPushed counts;
  const uint64_t pulled_before = thread_harness_counters.frames_pulled;
  const uint64_t steps_before = thread_harness_counters.steps_in_place;
  PollingBed pulled_bed(config, /*pulled=*/true);
  const std::vector<std::string> pulled = pulled_bed.Run();
  counts.frames_pulled = thread_harness_counters.frames_pulled - pulled_before;
  counts.pulled_steps = thread_harness_counters.steps_in_place - steps_before;
  check(pulled_bed);

  PollingBed pushed_bed(config, /*pulled=*/false);
  const std::vector<std::string> pushed = pushed_bed.Run();
  EXPECT_EQ(thread_harness_counters.frames_pulled - pulled_before, counts.frames_pulled);
  counts.pushed_steps =
      thread_harness_counters.steps_in_place - steps_before - counts.pulled_steps;

  EXPECT_GT(pulled.size(), 2000u);
  EXPECT_EQ(pulled.size(), pushed.size());
  for (size_t i = 0; i < std::min(pulled.size(), pushed.size()); ++i) {
    if (pulled[i] != pushed[i]) {
      ADD_FAILURE() << "entry " << i << ": pulled \"" << pulled[i] << "\", pushed \""
                    << pushed[i] << "\"";
      break;
    }
  }
  return counts;
}

// Frames pulled together keep the gap they arrived with: two frames 90 us apart leave
// the link idle for interrupt moderation, so leaving poll mode with both queued raises
// the fast interrupt, pulled as pushed.
TEST(PolledNic, PulledFramesKeepTheirArrivalTimes) {
  for (const bool pulled : {false, true}) {
    SCOPED_TRACE(pulled ? "pulled" : "pushed");
    EventLoop loop;
    PacketPool pool;
    SimulatedNic nic(0, NicConfig{}, loop, pool);
    LinkConfig config;
    config.propagation_delay = SimDuration::FromMicros(10);
    SimplexLink link(config, loop,
                     [&](std::vector<uint8_t>&& frame) { nic.DeliverFromWire(std::move(frame)); });
    if (pulled) {
      nic.AttachIngress(&link);
    }
    std::vector<SimTime> interrupts;
    nic.set_on_rx_interrupt(0, [&] { interrupts.push_back(loop.Now()); });
    nic.SetQueuePollMode(0, true);
    for (const uint64_t us : {uint64_t{0}, uint64_t{90}}) {
      loop.ScheduleAt(SimTime::FromMicros(us), [&] { link.Send(MakeFrame(FrameOptions{}, 100)); });
    }
    loop.ScheduleAt(SimTime::FromMicros(200), [&] {
      nic.SetQueuePollMode(0, false);  // takes the frames due first
      EXPECT_EQ(nic.RxQueued(0), 2u);
    });
    loop.RunUntil(SimTime::FromMillis(1));
    EXPECT_EQ(interrupts, std::vector<SimTime>{SimTime::FromMicros(200) + kInterruptDelay});
  }
}

TEST(PolledNic, PullingItsLinkSeesWhatPerFrameDeliverySees) {
  uint64_t rx_frames = 0;
  const PulledAndPushed counts = ExpectPulledSeesWhatPushedSees(PollingBedConfig{}, [&](
                                                                    PollingBed& bed) {
    rx_frames = bed.nic().stats().rx_frames;
    // The schedule reaches every case: overtaking and copied frames, ring overflow,
    // corrupted frames and exits from poll mode with frames still queued.
    EXPECT_GT(bed.link().frames_reordered(), 50u);
    EXPECT_GT(bed.link().frames_duplicated(), 20u);
    EXPECT_GT(bed.nic().stats().rx_dropped, 100u);
    EXPECT_GT(bed.nic().stats().rx_csum_bad, 0u);
    EXPECT_GT(bed.exits_with_frames(), 3u);
  });
  // Most frames come off the link without a wakeup.
  EXPECT_GT(counts.frames_pulled, rx_frames / 2);
  // Pulled, most steps run in place; pushed, the frames' own wakeups keep nearly every
  // step queued.
  EXPECT_GT(counts.pulled_steps, counts.pushed_steps);
}

// A long moderation delay keeps each interrupt pending while a burst fills the ring,
// so frames overflow it while the NIC pulls: the driver here never pauses in poll mode,
// so no drop can happen there.
TEST(PolledNic, RingOverflowUnderAPendingInterruptIsPulledAsPushed) {
  PollingBedConfig config;
  config.moderation_delay = SimDuration::FromMicros(400);
  config.pauses = false;
  const PulledAndPushed counts = ExpectPulledSeesWhatPushedSees(config, [](PollingBed& bed) {
    EXPECT_GT(bed.nic().stats().rx_dropped, 100u);
  });
  EXPECT_GT(counts.frames_pulled, 0u);
}

// Without moderation every interrupt comes kInterruptDelay after the frame that raised
// it; the frames behind it in that window are still pulled.
TEST(PolledNic, PullingWithoutModerationSeesWhatPerFrameDeliverySees) {
  PollingBedConfig config;
  config.moderation_delay = kInterruptDelay;
  const PulledAndPushed counts =
      ExpectPulledSeesWhatPushedSees(config, [](PollingBed& bed) {
        EXPECT_GT(bed.exits_with_frames(), 3u);
      });
  EXPECT_GT(counts.frames_pulled, 0u);
}

// A 4-queue RSS NIC whose flows all hash to queues 0-2: queue 3 stays idle, where an
// arrival would raise an interrupt, so the NIC never pulls.
TEST(PolledNic, AnIdleQueueKeepsTheNicPushing) {
  constexpr size_t kQueues = 4;
  const RssHasher hasher(kQueues, kRssSecretKey);
  PollingBedConfig config;
  config.queues = kQueues;
  config.rss = true;
  config.polled_queues = 3;
  std::vector<bool> hit(kQueues, false);
  for (uint16_t port = 10000; config.ports.size() < 9; ++port) {
    FrameOptions options;
    options.src_port = port;
    const size_t queue = hasher.QueueFor(PeekFlowKey(MakeFrame(options, 0))->key);
    if (queue < 3) {
      config.ports.push_back(port);
      hit[queue] = true;
    }
  }
  ASSERT_EQ(hit, (std::vector<bool>{true, true, true, false}));
  const PulledAndPushed counts = ExpectPulledSeesWhatPushedSees(config, [](PollingBed& bed) {
    EXPECT_EQ(bed.nic().rx_frames_on_queue(3), 0u);
    EXPECT_GT(bed.nic().stats().rx_dropped, 0u);
  });
  EXPECT_EQ(counts.frames_pulled, 0u);
}

}  // namespace
}  // namespace tcprx
