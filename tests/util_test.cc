// Tests for the util substrate: event loop ordering, SPSC ring semantics, RNG
// determinism, byte-order helpers, sim-time arithmetic, and logging levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/util/byte_order.h"
#include "src/util/event_loop.h"
#include "src/util/logging.h"
#include "src/util/ring.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"
#include "src/util/slot_queue.h"

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
// EventLoop against a reference queue
// ---------------------------------------------------------------------------

// Drives an EventLoop with random work and checks each callback, as it runs, against
// a plain priority queue over the (when, seq) it took. Every ScheduleAt, Reserve and
// Timer::Arm takes the next seq, so the driver numbers them the same way. The work:
// boxed events at tied, past (clamped) and future times; timers re-armed earlier and
// later (leaving a superseded wakeup queued), and cancelled; slots reserved now and
// queued immediately or by a later event, as a boxed callback or as one more slot of a
// target queued in many slots at once; and items on a SlotQueue, whose owner is queued
// again for each item that overtakes its head, as a link's reordered frame is.
class ReferenceOrderDriver {
 public:
  explicit ReferenceOrderDriver(uint64_t seed) : rng_(seed) {
    for (size_t k = 0; k < kTimers; ++k) {
      timers_.push_back(std::make_unique<EventLoop::Timer>(loop_, [this, k] {
        const uint64_t id = timer_entry_[k];
        timer_entry_[k] = kNone;
        Ran(id);
      }));
    }
  }

  // Runs until the loop drains; returns the first mismatch, or "" if none.
  std::string Run() {
    for (int i = 0; i < 64; ++i) {
      Schedule();
    }
    while (!loop_.Empty()) {
      loop_.RunUntil(loop_.Now() + SimDuration::FromNanos(1 + rng_.NextBelow(2000)));
    }
    while (!reference_.empty() && !live_[reference_.top().id]) {
      reference_.pop();
    }
    if (mismatch_.empty() && !reference_.empty()) {
      mismatch_ = "entry " + std::to_string(reference_.top().id) + " never ran";
    }
    return mismatch_;
  }

  uint64_t callbacks_run() const { return ran_; }
  size_t most_target_slots() const { return multi_slot_.most_queued; }
  uint64_t slot_queue_overtakes() const { return slot_queue_.overtakes; }

 private:
  static constexpr size_t kTimers = 6;
  static constexpr uint64_t kNone = ~uint64_t{0};

  struct Entry {
    SimTime when;
    uint64_t seq;
    uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  // A target queued in several slots at once: it finds each event's entry by the slot
  // the loop fires it with, so a stale or wrong slot shows as a mismatch.
  class MultiSlotTarget final : public EventLoop::Target {
   public:
    explicit MultiSlotTarget(ReferenceOrderDriver& driver) : driver_(driver) {}
    void Queue(EventLoop::Slot slot, uint64_t id) {
      pending_[slot.seq] = Entry{slot.when, slot.seq, id};
      most_queued = std::max(most_queued, pending_.size());
      driver_.loop_.QueueAt(slot, *this);
    }
    size_t most_queued = 0;  // slots it was queued in at once

   private:
    void Fire(EventLoop::Slot slot) override {
      const auto it = pending_.find(slot.seq);
      if (it == pending_.end() || it->second.when != slot.when) {
        driver_.mismatch_ = "a target fired in slot " + std::to_string(slot.seq) +
                            ", where none of its events was queued";
        return;  // the entry never runs, so Run reports it too
      }
      const uint64_t id = it->second.id;
      pending_.erase(it);
      driver_.Ran(id);
    }

    ReferenceOrderDriver& driver_;
    std::map<uint64_t, Entry> pending_;  // by seq
  };

  // The owner of a SlotQueue of entry ids: each of its wakeups runs the head.
  class SlotQueueOwner final : public EventLoop::Target {
   public:
    explicit SlotQueueOwner(ReferenceOrderDriver& driver)
        : driver_(driver), queue_(driver.loop_, *this) {}
    void Push(EventLoop::Slot slot, uint64_t id) {
      overtakes += !queue_.empty() && slot < queue_.head_slot() ? 1u : 0u;
      queue_.Push(slot, id);
    }
    uint64_t overtakes = 0;  // items pushed ahead of the head

   private:
    void Fire(EventLoop::Slot slot) override {
      if (queue_.empty() || queue_.head_slot() != slot) {
        driver_.mismatch_ = "a SlotQueue wakeup fired outside its head's slot";
        return;
      }
      driver_.Ran(queue_.Pop());
    }

    ReferenceOrderDriver& driver_;
    SlotQueue<uint64_t> queue_;
  };

  // Takes the next (when, seq) as the loop does, and expects a callback in it.
  Entry Take(SimTime when) {
    const Entry entry{when < loop_.Now() ? loop_.Now() : when, next_seq_++, live_.size()};
    live_.push_back(true);
    reference_.push(entry);
    --budget_;
    return entry;
  }

  void Ran(uint64_t id) {
    ++ran_;
    while (!reference_.empty() && !live_[reference_.top().id]) {
      reference_.pop();
    }
    if (mismatch_.empty() &&
        (reference_.empty() || reference_.top().id != id || reference_.top().when != loop_.Now())) {
      mismatch_ = "entry " + std::to_string(id) + " ran at " + std::to_string(loop_.Now().nanos()) +
                  " ns, before entry " +
                  (reference_.empty() ? std::string("none") : std::to_string(reference_.top().id));
    }
    if (!reference_.empty() && reference_.top().id == id) {
      reference_.pop();
    }
    live_[id] = false;
    const uint64_t actions = budget_ > 0 ? rng_.NextBelow(4) : 0;
    for (uint64_t i = 0; i < actions; ++i) {
      Act();
    }
  }

  SimTime RandomTime() {
    const uint64_t now = loop_.Now().nanos();
    switch (rng_.NextBelow(4)) {
      case 0:
        return loop_.Now();  // a tie with whatever else runs now
      case 1:
        return SimTime::FromNanos(now - rng_.NextBelow(now + 1));  // clamped to now
      case 2:
        return SimTime::FromNanos(now + rng_.NextBelow(10));
      default:
        return SimTime::FromNanos(now + rng_.NextBelow(1000));
    }
  }

  void Schedule() {
    const Entry entry = Take(RandomTime());
    loop_.ScheduleAt(entry.when, [this, id = entry.id] { Ran(id); });
  }

  void Act() {
    switch (rng_.NextBelow(6)) {
      case 0:
      case 1:
        Schedule();
        break;
      case 2: {  // (re-)arm: the new deadline may fall before or after the old one
        const size_t k = rng_.NextBelow(kTimers);
        const SimDuration delay = SimDuration::FromNanos(rng_.NextBelow(2) ? rng_.NextBelow(10)
                                                                           : rng_.NextBelow(1000));
        if (timer_entry_[k] != kNone) {
          live_[timer_entry_[k]] = false;
        }
        timer_entry_[k] = Take(loop_.Now() + delay).id;
        timers_[k]->Arm(delay);
        break;
      }
      case 3: {
        const size_t k = rng_.NextBelow(kTimers);
        if (timer_entry_[k] != kNone) {
          live_[timer_entry_[k]] = false;
          timer_entry_[k] = kNone;
        }
        timers_[k]->Cancel();
        break;
      }
      case 4: {  // a random time, so often ahead of items pushed earlier
        const SimTime when = RandomTime();
        const EventLoop::Slot slot = loop_.Reserve(when);
        slot_queue_.Push(slot, Take(when).id);
        break;
      }
      default:
        Reserve();
        break;
    }
  }

  // Reserves a slot and queues it now, or from an event that runs before its time.
  void Reserve() {
    const SimTime when = RandomTime();
    const EventLoop::Slot slot = loop_.Reserve(when);
    const Entry entry = Take(when);
    if (slot.when != entry.when || slot.seq != entry.seq) {
      mismatch_ = "the driver's seq count drifted from the loop's";
      return;
    }
    auto queue = [this, slot, id = entry.id, boxed = rng_.NextBelow(2) == 0] {
      if (boxed) {
        loop_.QueueAt(slot, [this, id] { Ran(id); });
      } else {
        multi_slot_.Queue(slot, id);
      }
    };
    if (slot.when == loop_.Now() || rng_.NextBelow(2) == 0) {
      queue();
      return;
    }
    const uint64_t lead = rng_.NextBelow((slot.when - loop_.Now()).nanos());
    const Entry queuer = Take(loop_.Now() + SimDuration::FromNanos(lead));
    loop_.ScheduleAt(queuer.when, [this, queue, id = queuer.id] {
      queue();
      Ran(id);
    });
  }

  EventLoop loop_;
  Rng rng_;
  MultiSlotTarget multi_slot_{*this};
  SlotQueueOwner slot_queue_{*this};
  std::vector<std::unique_ptr<EventLoop::Timer>> timers_;
  std::vector<uint64_t> timer_entry_ = std::vector<uint64_t>(kTimers, kNone);  // live arm
  std::priority_queue<Entry, std::vector<Entry>, Later> reference_;
  std::vector<bool> live_;  // by entry id: still expected to run
  uint64_t next_seq_ = 0;
  int64_t budget_ = 4000;  // entries left to take
  uint64_t ran_ = 0;
  std::string mismatch_;
};

TEST(EventLoop, ClearAndDestructionFreeBoxedCallbacksButNeverATarget) {
  struct Counting final : EventLoop::Target {
    void Fire(EventLoop::Slot /*slot*/) override { ++fired; }
    int fired = 0;
  };
  const auto held = std::make_shared<int>(0);  // each boxed callback holds a reference
  Counting target;
  {
    EventLoop loop;
    loop.ScheduleAt(SimTime::FromNanos(10), [held] {});
    loop.ScheduleAt(SimTime::FromNanos(10), target);
    loop.QueueAt(loop.Reserve(SimTime::FromNanos(20)), [held] {});
    EXPECT_EQ(held.use_count(), 3);
    loop.Clear();
    EXPECT_EQ(held.use_count(), 1);
    EXPECT_TRUE(loop.Empty());
    loop.RunToCompletion();
    EXPECT_EQ(target.fired, 0);

    // Destroyed with events queued: a boxed callback, a live target and a target that
    // is already gone, which the loop must not touch.
    loop.ScheduleAt(SimTime::FromNanos(30), [held] {});
    loop.ScheduleAt(SimTime::FromNanos(30), target);
    auto gone = std::make_unique<Counting>();
    loop.ScheduleAt(SimTime::FromNanos(30), *gone);
    gone.reset();
    EXPECT_EQ(held.use_count(), 2);
  }
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(target.fired, 0);
}

TEST(EventLoop, BoxedCallbackIsFreedOnceRunAndMayClearTheLoop) {
  const auto held = std::make_shared<int>(0);
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(SimTime::FromNanos(10), [held, &ran] { ++ran; });
  loop.RunToCompletion();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(held.use_count(), 1);

  loop.ScheduleAt(SimTime::FromNanos(20), [held, &loop, &ran] {
    ++ran;
    loop.Clear();
    EXPECT_EQ(held.use_count(), 2);  // this callback's own copy lives until it returns
  });
  loop.ScheduleAt(SimTime::FromNanos(30), [held, &ran] { ++ran; });
  EXPECT_EQ(loop.RunToCompletion(), 1u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(held.use_count(), 1);
}

TEST(EventLoop, RunsInReferenceOrderUnderRandomWork) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ReferenceOrderDriver driver(seed);
    EXPECT_EQ(driver.Run(), "") << "seed " << seed;
    EXPECT_GT(driver.callbacks_run(), 1000u) << "seed " << seed;
    EXPECT_GT(driver.most_target_slots(), 1u) << "seed " << seed;
    EXPECT_GT(driver.slot_queue_overtakes(), 0u) << "seed " << seed;
  }
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
