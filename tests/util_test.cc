// Tests for the util substrate: event loop ordering, SPSC ring semantics, RNG
// determinism, byte-order helpers, sim-time arithmetic, and logging levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/util/byte_order.h"
#include "src/util/event_loop.h"
#include "src/util/harness_counters.h"
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
// target queued in many slots at once; items on a SlotQueue, whose owner is queued
// again for each item that overtakes its head, as a link's reordered frame is; and a
// target that runs its next events in place while nothing is due first, as a polling
// driver does, queueing itself when it cannot.
//
// `far_future` more events are queued first at times past all of that work, as armed
// timer wakeups wait beside a many-flow run's per-packet events, so each event fired
// meanwhile sits at the root of a deep heap.
class ReferenceOrderDriver {
 public:
  explicit ReferenceOrderDriver(uint64_t seed, size_t far_future = 0)
      : rng_(seed), far_future_(far_future) {
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
    for (size_t i = 0; i < far_future_; ++i) {
      const Entry entry = Take(SimTime::FromNanos(kFarFutureNs + rng_.NextBelow(kFarFutureNs)));
      loop_.ScheduleAt(entry.when, [this, id = entry.id] { Ran(id); });
      ++budget_;  // the random work keeps its whole budget
    }
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
  uint64_t steps_in_place() const { return stepper_.steps; }
  uint64_t steps_refused() const { return stepper_.refused; }

 private:
  static constexpr size_t kTimers = 6;
  static constexpr uint64_t kNone = ~uint64_t{0};
  static constexpr uint64_t kFarFutureNs = 10'000'000;  // past any time the work reaches

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
      queue_.Push(slot, uint64_t{id});
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

  // Each Fire runs its entry, then reserves more at random times and runs each in
  // place, until the loop refuses one (something is due first, or the time is past
  // the run), which it queues instead. Each entry's random work may have queued events
  // first, so a step runs with the spent root still in place or with it replaced.
  class InPlaceStepper final : public EventLoop::Target {
   public:
    explicit InPlaceStepper(ReferenceOrderDriver& driver) : driver_(driver) {}
    void Queue(SimTime when) {
      const Entry entry = driver_.Take(when);
      pending_[entry.seq] = entry.id;
      driver_.loop_.ScheduleAt(entry.when, *this);
    }
    uint64_t steps = 0;
    uint64_t refused = 0;

   private:
    void Fire(EventLoop::Slot slot) override {
      const auto it = pending_.find(slot.seq);
      if (it == pending_.end()) {
        driver_.mismatch_ = "a stepper fired in slot " + std::to_string(slot.seq) +
                            ", where none of its events was queued";
        return;
      }
      uint64_t id = it->second;
      pending_.erase(it);
      for (;;) {
        driver_.Ran(id);
        if (driver_.budget_ <= 0 || driver_.rng_.NextBelow(4) == 0) {
          return;
        }
        const SimTime when = driver_.RandomTime();
        const EventLoop::Slot step = driver_.loop_.Reserve(when);
        const Entry next = driver_.Take(when);
        if (step.when != next.when || step.seq != next.seq) {
          driver_.mismatch_ = "the driver's seq count drifted from the loop's";
          return;
        }
        if (!driver_.loop_.RunInPlace(step)) {
          ++refused;
          pending_[next.seq] = next.id;
          driver_.loop_.QueueAt(step, *this);
          return;
        }
        ++steps;
        if (driver_.loop_.Current() != step) {
          driver_.mismatch_ = "a step in place ran in another slot than its own";
        }
        id = next.id;
      }
    }

    ReferenceOrderDriver& driver_;
    std::map<uint64_t, uint64_t> pending_;  // entry id by seq
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
    switch (rng_.NextBelow(7)) {
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
      case 5:
        stepper_.Queue(RandomTime());
        break;
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
  size_t far_future_;
  MultiSlotTarget multi_slot_{*this};
  SlotQueueOwner slot_queue_{*this};
  InPlaceStepper stepper_{*this};
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
    EXPECT_GT(driver.steps_in_place(), 0u) << "seed " << seed;
    EXPECT_GT(driver.steps_refused(), 0u) << "seed " << seed;
  }
  // The same work beside several hundred far-future events.
  for (uint64_t seed = 101; seed <= 108; ++seed) {
    const size_t far_future = 200 * (seed - 100);
    ReferenceOrderDriver driver(seed, far_future);
    EXPECT_EQ(driver.Run(), "") << "seed " << seed;
    EXPECT_GT(driver.callbacks_run(), 1000u + far_future) << "seed " << seed;
    EXPECT_GT(driver.slot_queue_overtakes(), 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// EventLoop: the spent root
// ---------------------------------------------------------------------------

TEST(EventLoop, TheRunningEventIsNotPending) {
  for (const size_t others : {size_t{0}, size_t{3}}) {
    SCOPED_TRACE(others);
    EventLoop loop;
    std::vector<size_t> pending;
    std::vector<bool> empty;
    const auto look = [&] {
      pending.push_back(loop.PendingEvents());
      empty.push_back(loop.Empty());
    };
    loop.ScheduleAt(SimTime::FromNanos(10), [&] {
      look();  // nothing queued yet: the spent root is not counted
      loop.ScheduleAt(SimTime::FromNanos(15), [] {});
      look();  // the new event took the root's place
      loop.ScheduleAt(SimTime::FromNanos(25), [] {});
      look();
    });
    for (size_t i = 0; i < others; ++i) {
      loop.ScheduleAt(SimTime::FromNanos(20), [] {});
    }
    EXPECT_EQ(loop.PendingEvents(), 1 + others);
    EXPECT_EQ(loop.RunToCompletion(), 3 + others);
    EXPECT_EQ(pending, (std::vector<size_t>{others, others + 1, others + 2}));
    EXPECT_EQ(empty, (std::vector<bool>{others == 0, false, false}));
    EXPECT_TRUE(loop.Empty());
  }
}

// A target that runs `body` with the slot it fires in.
struct Probe final : EventLoop::Target {
  explicit Probe(std::function<void(EventLoop::Slot)> fn) : body(std::move(fn)) {}
  void Fire(EventLoop::Slot slot) override { body(slot); }
  std::function<void(EventLoop::Slot)> body;
};

TEST(EventLoop, RunInPlaceRefusesWhateverWouldRunOutOfOrder) {
  constexpr SimTime kRunAt = SimTime::FromNanos(20);
  struct Case {
    const char* name;
    SimTime pending;     // another event's slot
    bool pending_first;  // that slot is reserved before the one run in place
    SimTime deadline;    // of the run
    bool runs;
  };
  const Case cases[] = {
      {"an earlier pending key", SimTime::FromNanos(15), false, SimTime::FromNanos(1000), false},
      {"a pending key at the same time with a lower seq", kRunAt, true, SimTime::FromNanos(1000),
       false},
      {"a slot past the run's deadline", SimTime::FromNanos(500), false, SimTime::FromNanos(19),
       false},
      {"a pending key at the same time with a higher seq", kRunAt, false,
       SimTime::FromNanos(1000), true},
      {"nothing due first", SimTime::FromNanos(21), true, SimTime::FromNanos(1000), true},
  };
  for (const Case& c : cases) {
    // With the spent root, the other event was queued before the run and the running
    // one has queued nothing; without it, the running one queued the other first.
    for (const bool spent_root : {true, false}) {
      SCOPED_TRACE(std::string(c.name) + (spent_root ? ", spent root" : ", root replaced"));
      EventLoop loop;
      bool ran = false;
      EventLoop::Slot pending;
      EventLoop::Slot slot;
      Probe runner([&](EventLoop::Slot /*slot*/) {
        if (!spent_root) {
          loop.QueueAt(pending, [] {});
        }
        const EventLoop::Slot before = loop.Current();
        ran = loop.RunInPlace(slot);
        EXPECT_EQ(loop.Current(), ran ? slot : before);
        if (!ran) {
          loop.QueueAt(slot, [] {});
        }
      });
      loop.ScheduleAt(SimTime::FromNanos(10), runner);
      if (c.pending_first) {
        pending = loop.Reserve(c.pending);
        slot = loop.Reserve(kRunAt);
      } else {
        slot = loop.Reserve(kRunAt);
        pending = loop.Reserve(c.pending);
      }
      if (spent_root) {
        loop.QueueAt(pending, [] {});
      }
      for (int i = 0; i < 3; ++i) {  // more children of the root, all later
        loop.ScheduleAt(SimTime::FromNanos(5000), [] {});
      }
      loop.RunUntil(c.deadline);
      EXPECT_EQ(ran, c.runs);
    }
  }
  // Outside a run, with nothing pending and with an event pending.
  EventLoop idle;
  const EventLoop::Slot slot = idle.Reserve(SimTime::FromNanos(5));
  EXPECT_FALSE(idle.RunInPlace(slot));
  idle.ScheduleAt(SimTime::FromNanos(100), [] {});
  EXPECT_FALSE(idle.RunInPlace(slot));
  EXPECT_EQ(idle.Current(), (EventLoop::Slot{SimTime(), 0}));
}

// A step in place runs where the queued step would have, in the slot its Reserve took,
// and every seq reserved afterwards is the one the queued step would have left.
TEST(EventLoop, RunInPlaceTakesTheSlotOfTheEventItReplaces) {
  struct Seen {
    std::vector<EventLoop::Slot> steps;
    EventLoop::Slot later;
  };
  const auto run = [](bool in_place) {
    EventLoop loop;
    Seen seen;
    int left = 3;
    Probe stepper([&](EventLoop::Slot) {});
    stepper.body = [&](EventLoop::Slot slot) {
      seen.steps.push_back(slot);
      while (--left > 0) {
        const EventLoop::Slot next = loop.Reserve(loop.Now() + SimDuration::FromNanos(5));
        if (!in_place || !loop.RunInPlace(next)) {
          loop.QueueAt(next, stepper);
          return;
        }
        seen.steps.push_back(loop.Current());
      }
      seen.later = loop.Reserve(loop.Now() + SimDuration::FromNanos(1));
    };
    loop.Reserve(SimTime::FromNanos(3));  // seqs need not start at 0
    loop.ScheduleAt(SimTime::FromNanos(10), stepper);
    loop.ScheduleAt(SimTime::FromNanos(1000), [] {});
    const uint64_t events = loop.RunUntil(SimTime::FromNanos(100));
    EXPECT_EQ(loop.Current(), (EventLoop::Slot{SimTime::FromNanos(100), 6}));  // after all
    return std::make_pair(seen, events);
  };
  const auto [queued, queued_events] = run(false);
  const auto [in_place, in_place_events] = run(true);
  EXPECT_EQ(queued_events, 3u);
  EXPECT_EQ(in_place_events, 1u);
  ASSERT_EQ(in_place.steps.size(), 3u);
  EXPECT_EQ(in_place.steps, queued.steps);
  EXPECT_EQ(in_place.steps.back(), (EventLoop::Slot{SimTime::FromNanos(20), 4}));
  EXPECT_EQ(in_place.later, queued.later);
}

// A refused check finds the spent root's earliest child, and the QueueAt that follows
// starts its sift from that child instead of comparing the children again.
TEST(EventLoop, ARefusedRunInPlaceLeavesItsChildCompareToTheSift) {
  const auto compares = [](bool check_first) {
    EventLoop loop;
    uint64_t counted = 0;
    Probe runner([&](EventLoop::Slot /*slot*/) {
      const EventLoop::Slot next = loop.Reserve(SimTime::FromNanos(50));
      const uint64_t before = thread_harness_counters.event_key_compares;
      if (!check_first || !loop.RunInPlace(next)) {
        loop.QueueAt(next, [] {});
      }
      counted = thread_harness_counters.event_key_compares - before;
    });
    loop.ScheduleAt(SimTime::FromNanos(10), runner);
    for (uint64_t i = 0; i < 4; ++i) {  // four children of the root, one due before 50 ns
      loop.ScheduleAt(SimTime::FromNanos(i == 2 ? 40 : 60 + i), [] {});
    }
    loop.RunUntil(SimTime::FromNanos(100));
    return counted;
  };
  // Queued alone, the root's level compares 4 keys and the next level none. Checked
  // first: 3 to find the earliest child, 1 against the slot, then 1 for the sift.
  EXPECT_EQ(compares(false), 4u);
  EXPECT_EQ(compares(true), 5u);
}

TEST(EventLoop, BoxedCallbackMayClearTheLoopAndQueueAgain) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(SimTime::FromNanos(10), [&] {
    order.push_back(1);
    loop.Clear();
    EXPECT_TRUE(loop.Empty());
    loop.ScheduleAt(SimTime::FromNanos(40), [&] { order.push_back(4); });
    EXPECT_EQ(loop.PendingEvents(), 1u);
  });
  loop.ScheduleAt(SimTime::FromNanos(20), [&] { order.push_back(2); });
  loop.ScheduleAt(SimTime::FromNanos(30), [&] { order.push_back(3); });
  EXPECT_EQ(loop.RunToCompletion(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoopDeathTest, RunFromInsideAnEventIsRefused) {
  EXPECT_DEATH(
      {
        EventLoop loop;
        loop.ScheduleAt(SimTime::FromNanos(10), [&loop] { loop.RunUntil(SimTime::FromNanos(20)); });
        loop.RunToCompletion();
      },
      "inside a running event");
  EXPECT_DEATH(
      {
        EventLoop loop;
        loop.ScheduleAt(SimTime::FromNanos(10), [&loop] { loop.RunToCompletion(); });
        loop.RunUntil(SimTime::FromNanos(20));
      },
      "inside a running event");
}

// A target that queues its own next event 1 ns later, beside 1600 far-future wakeups:
// its new key replaces its spent one at the root and sifts one level (4 compares), so
// the heap work per event does not grow with what else is pending. (A pop of the root,
// which sinks the last leaf through every level, plus a push cost about 25 here.)
TEST(HarnessCounters, SelfRequeueingEventCostsOneLevelWhateverIsPending) {
  struct Idle final : EventLoop::Target {
    void Fire(EventLoop::Slot /*slot*/) override {}
  };
  struct SelfRequeue final : EventLoop::Target {
    explicit SelfRequeue(EventLoop& l) : loop(l) {}
    void Fire(EventLoop::Slot /*slot*/) override {
      loop.ScheduleAt(loop.Now() + SimDuration::FromNanos(1), *this);
    }
    EventLoop& loop;
  };
  EventLoop loop;
  Idle idle;
  for (uint64_t i = 0; i < 1600; ++i) {
    loop.ScheduleAt(SimTime::FromSeconds(1) + SimDuration::FromNanos(i), idle);
  }
  SelfRequeue target(loop);
  loop.ScheduleAt(SimTime::FromNanos(1), target);

  const HarnessCounters before = thread_harness_counters;
  EXPECT_EQ(loop.RunUntil(SimTime::FromNanos(10'000)), 10'000u);  // at 1..10000 ns
  const HarnessCounters window = thread_harness_counters - before;
  EXPECT_EQ(window.events_run, 10'000u);
  EXPECT_LE(window.event_key_compares, 4 * window.events_run);
  EXPECT_EQ(loop.PendingEvents(), 1601u);
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

// An element lives in its slot from Push to Pop: empty slots hold nothing, teardown
// destroys exactly the elements still queued, and a moved-from ring destroys none.
TEST(SpscRing, TeardownDestroysExactlyTheLiveElements) {
  struct Counted {
    explicit Counted(int* live_count) : live(live_count) { ++*live; }
    Counted(Counted&& other) noexcept : live(other.live) { ++*live; }
    Counted(const Counted&) = delete;
    Counted& operator=(const Counted&) = delete;
    ~Counted() { --*live; }
    int* live;
  };
  int live = 0;
  {
    SpscRing<Counted> ring(8);
    EXPECT_EQ(live, 0);  // no slot holds an element before its Push
    for (int round = 0; round < 3; ++round) {  // wrap the live range past the end
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(ring.Push(Counted(&live)));
      }
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.Pop().has_value());
      }
    }
    EXPECT_EQ(ring.Size(), 3u);
    EXPECT_EQ(live, 3);
  }
  EXPECT_EQ(live, 0);

  {
    SpscRing<Counted> from(4);
    ASSERT_TRUE(from.Push(Counted(&live)));
    ASSERT_TRUE(from.Push(Counted(&live)));
    SpscRing<Counted> to(std::move(from));
    EXPECT_EQ(live, 2);
    EXPECT_TRUE(from.Empty());
    EXPECT_EQ(to.Size(), 2u);
    ASSERT_TRUE(to.Pop().has_value());
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);  // the moved-from ring destroyed nothing twice
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

TEST(LoggingDeathTest, CheckAborts) {
  EXPECT_DEATH({ TCPRX_CHECK_MSG(1 == 2, "impossible"); }, "CHECK failed");
}

TEST(LoggingDeathTest, FailureNamesTheFileLineExpressionAndMessage) {
  const int line = __LINE__ + 1;
  EXPECT_DEATH({ TCPRX_CHECK_MSG(1 + 1 == 3, "arithmetic is off"); },
               "CHECK failed at [^ ]*tests/util_test\\.cc:" + std::to_string(line) +
                   ": 1 \\+ 1 == 3 arithmetic is off\n");
  EXPECT_DEATH({ TCPRX_CHECK(2 < 1); }, "tests/util_test\\.cc:[0-9]+: 2 < 1 \n");
  const std::string built = "built at run time: " + std::to_string(7);
  EXPECT_DEATH({ TCPRX_CHECK_MSG(false, built); }, ": false built at run time: 7\n");
}

TEST(LoggingDeathTest, MessageIsEvaluatedOnlyWhenTheCheckFails) {
  int evaluations = 0;
  const auto message = [&evaluations] {
    ++evaluations;
    return std::string("built on failure");
  };
  for (int i = 0; i < 3; ++i) {
    TCPRX_CHECK_MSG(i < 3, message());
  }
  EXPECT_EQ(evaluations, 0);
  EXPECT_DEATH({ TCPRX_CHECK_MSG(evaluations > 0, message()); }, "built on failure");
}

}  // namespace
}  // namespace tcprx
