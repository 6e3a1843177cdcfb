// Tests for the util substrate: event loop ordering, SPSC ring semantics, RNG
// determinism, byte-order helpers, sim-time arithmetic, and logging levels.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/byte_order.h"
#include "src/util/event_loop.h"
#include "src/util/logging.h"
#include "src/util/ring.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"

namespace tcprx {
namespace {

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(SimTime::FromNanos(30), [&] { order.push_back(3); });
  loop.ScheduleAt(SimTime::FromNanos(10), [&] { order.push_back(1); });
  loop.ScheduleAt(SimTime::FromNanos(20), [&] { order.push_back(2); });
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(SimTime::FromNanos(5), [&order, i] { order.push_back(i); });
  }
  loop.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(SimTime::FromNanos(10), [&] { ++ran; });
  loop.ScheduleAt(SimTime::FromNanos(100), [&] { ++ran; });
  const uint64_t executed = loop.RunUntil(SimTime::FromNanos(50));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.Now(), SimTime::FromNanos(50));
  EXPECT_EQ(loop.PendingEvents(), 1u);
}

TEST(EventLoop, SchedulingInPastClampsToNow) {
  EventLoop loop;
  loop.ScheduleAt(SimTime::FromNanos(100), [] {});
  loop.RunUntil(SimTime::FromNanos(100));
  SimTime fired;
  loop.ScheduleAt(SimTime::FromNanos(5), [&] { fired = loop.Now(); });
  loop.RunToCompletion();
  EXPECT_EQ(fired, SimTime::FromNanos(100));
}

TEST(EventLoop, EventsScheduledDuringExecutionRun) {
  EventLoop loop;
  int depth = 0;
  loop.ScheduleAt(SimTime::FromNanos(1), [&] {
    ++depth;
    loop.ScheduleAfter(SimDuration::FromNanos(1), [&] { ++depth; });
  });
  loop.RunToCompletion();
  EXPECT_EQ(depth, 2);
}

TEST(EventLoop, RunUntilAdvancesTimeEvenWhenEmpty) {
  EventLoop loop;
  loop.RunUntil(SimTime::FromMillis(5));
  EXPECT_EQ(loop.Now(), SimTime::FromMillis(5));
}

// ---------------------------------------------------------------------------
// EventLoop::Timer
// ---------------------------------------------------------------------------

TEST(EventLoopTimer, ReArmedLaterFiresOnceAtLastDeadline) {
  EventLoop loop;
  std::vector<SimTime> fired;
  EventLoop::Timer timer(loop, [&] { fired.push_back(loop.Now()); });
  timer.Arm(SimDuration::FromNanos(10));
  loop.ScheduleAt(SimTime::FromNanos(5), [&] { timer.Arm(SimDuration::FromNanos(10)); });
  loop.ScheduleAt(SimTime::FromNanos(12), [&] { timer.Arm(SimDuration::FromNanos(10)); });
  loop.RunToCompletion();
  EXPECT_EQ(fired, (std::vector<SimTime>{SimTime::FromNanos(22)}));
  EXPECT_FALSE(timer.armed());
}

TEST(EventLoopTimer, ReArmedEarlierFiresEarlyAndSupersededWakeupStaysSilent) {
  EventLoop loop;
  std::vector<SimTime> fired;
  EventLoop::Timer timer(loop, [&] {
    fired.push_back(loop.Now());
    if (fired.size() == 1) {
      timer.Arm(SimDuration::FromNanos(200));  // outlives the superseded wakeup at 100
    }
  });
  timer.Arm(SimDuration::FromNanos(100));
  timer.Arm(SimDuration::FromNanos(10));
  EXPECT_TRUE(timer.armed());
  loop.RunToCompletion();
  EXPECT_EQ(fired, (std::vector<SimTime>{SimTime::FromNanos(10), SimTime::FromNanos(210)}));
}

TEST(EventLoopTimer, CancelledNeverFires) {
  EventLoop loop;
  int fired = 0;
  EventLoop::Timer timer(loop, [&] { ++fired; });
  timer.Arm(SimDuration::FromNanos(10));
  timer.Cancel();
  EXPECT_FALSE(timer.armed());
  loop.RunToCompletion();
  EXPECT_EQ(fired, 0);
}

TEST(EventLoopTimer, KeepsItsArmOrderAmongSameInstantEvents) {
  EventLoop loop;
  std::vector<std::string> order;
  EventLoop::Timer before(loop, [&] { order.push_back("before"); });
  EventLoop::Timer after(loop, [&] { order.push_back("after"); });
  EventLoop::Timer requeued(loop, [&] { order.push_back("requeued"); });
  // `requeued` first wakes at 50 and must queue itself again at 100 in the slot its
  // last Arm reserved: ahead of the event scheduled after that Arm.
  requeued.Arm(SimDuration::FromNanos(50));
  requeued.Arm(SimDuration::FromNanos(100));
  before.Arm(SimDuration::FromNanos(100));
  loop.ScheduleAt(SimTime::FromNanos(100), [&] { order.push_back("event"); });
  after.Arm(SimDuration::FromNanos(100));
  loop.RunToCompletion();
  EXPECT_EQ(order, (std::vector<std::string>{"requeued", "before", "event", "after"}));
}

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRing, PushPopFifo) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.Empty());
  EXPECT_TRUE(ring.Push(1));
  EXPECT_TRUE(ring.Push(2));
  EXPECT_TRUE(ring.Push(3));
  EXPECT_EQ(ring.Size(), 3u);
  EXPECT_EQ(ring.Pop().value(), 1);
  EXPECT_EQ(ring.Pop().value(), 2);
  EXPECT_EQ(ring.Pop().value(), 3);
  EXPECT_FALSE(ring.Pop().has_value());
}

TEST(SpscRing, FullRejectsPush) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.Push(1));
  EXPECT_TRUE(ring.Push(2));
  EXPECT_TRUE(ring.Full());
  EXPECT_FALSE(ring.Push(3));
  EXPECT_EQ(ring.Size(), 2u);
}

TEST(SpscRing, WrapsAround) {
  SpscRing<int> ring(3);
  for (int round = 0; round < 50; ++round) {
    EXPECT_TRUE(ring.Push(round));
    EXPECT_EQ(ring.Pop().value(), round);
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRing, FrontPeeksWithoutConsuming) {
  SpscRing<std::string> ring(2);
  EXPECT_EQ(ring.Front(), nullptr);
  ring.Push("a");
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), "a");
  EXPECT_EQ(ring.Size(), 1u);
}

TEST(SpscRing, MoveOnlyTypes) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ring.Push(std::make_unique<int>(42));
  auto out = ring.Pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 42);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, BernoulliFrequencyRoughlyMatches) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Byte order, SimTime, logging
// ---------------------------------------------------------------------------

TEST(ByteOrder, RoundTrip16And32) {
  uint8_t buf[4];
  StoreBe16(buf, 0xabcd);
  EXPECT_EQ(buf[0], 0xab);
  EXPECT_EQ(buf[1], 0xcd);
  EXPECT_EQ(LoadBe16(buf), 0xabcd);
  StoreBe32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(LoadBe32(buf), 0x01020304u);
}

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(SimTime::FromMicros(3).nanos(), 3000u);
  EXPECT_EQ(SimTime::FromMillis(2).nanos(), 2'000'000u);
  EXPECT_EQ(SimTime::FromSeconds(1).nanos(), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(SimTime::FromMillis(1500).ToSecondsF(), 1.5);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::FromNanos(100);
  const SimTime b = SimTime::FromNanos(40);
  EXPECT_EQ((a + b).nanos(), 140u);
  EXPECT_EQ((a - b).nanos(), 60u);
  EXPECT_LT(b, a);
}

TEST(Logging, LevelFilters) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(static_cast<int>(GetLogLevel()), static_cast<int>(LogLevel::kError));
  SetLogLevel(old_level);
}

TEST(LoggingDeathTest, CheckAborts) {
  EXPECT_DEATH({ TCPRX_CHECK_MSG(1 == 2, "impossible"); }, "CHECK failed");
}

}  // namespace
}  // namespace tcprx
