// Discrete-event scheduler.
//
// A single-threaded queue of timestamped events. Ties are broken by insertion order
// so runs are fully deterministic. Everything in the testbed — link serialization, NIC
// interrupts, CPU batch completion, TCP timers — is an event here.
//
// An event names its owner, not a closure: the queue is a 4-ary min-heap of small
// {when, seq, target} keys, and running an event calls target->Fire(slot). The
// per-packet sources (link wakeups, poll steps, NIC interrupts, transmit batches,
// timers) are targets themselves, so queueing one builds, moves and destroys nothing.
// A cold caller's std::function is boxed as a target that frees itself when it runs.

#ifndef SRC_UTIL_EVENT_LOOP_H_
#define SRC_UTIL_EVENT_LOOP_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/util/sim_time.h"

namespace tcprx {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  // A place in the event order: events run by time, then by seq. Reserve takes one
  // now, exactly as ScheduleAt would, and QueueAt later queues an event in it, which
  // then runs where a ScheduleAt at reservation time would have run. This lets an
  // owner of many deadlines (a Timer, a SimplexLink's frames in flight) keep a single
  // wakeup queued for the earliest of them.
  struct Slot {
    SimTime when;
    uint64_t seq = 0;
    auto operator<=>(const Slot&) const = default;
  };

  // The owner of queued events. The loop calls Fire with the slot of each event it
  // runs; one target may be queued in several slots at once and tells them apart by
  // that slot. The loop never owns, deletes or touches a queued target other than to
  // fire it: a target must outlive its queued events and not move.
  class Target {
   public:
    virtual void Fire(Slot slot) = 0;

   protected:
    Target() = default;
    Target(const Target&) = default;
    Target& operator=(const Target&) = default;
    ~Target() = default;
  };

  // One re-armable deadline: fires `on_fire` `delay` after the last Arm unless
  // cancelled first. Each Arm reserves a slot, so the timer fires where a
  // ScheduleAfter at that Arm would, yet keeps one wakeup queued: a wakeup that finds
  // the deadline moved later re-queues itself in the new slot, and an earlier deadline
  // queues a new wakeup that the old one defers to. Each wakeup is the timer itself,
  // fired in the slot it was queued in. It must outlive its wakeups and not move.
  class Timer final : public Target {
   public:
    Timer(EventLoop& loop, Callback on_fire) : loop_(loop), on_fire_(std::move(on_fire)) {}
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    void Arm(SimDuration delay);
    void Cancel() { armed_ = false; }
    bool armed() const { return armed_; }

   private:
    void Fire(Slot slot) override { Wake(slot.seq); }
    void QueueWakeup();
    void Wake(uint64_t seq);

    EventLoop& loop_;
    Callback on_fire_;
    bool armed_ = false;
    Slot deadline_;        // reserved by the last Arm
    bool queued_ = false;  // the live wakeup is queued in `queued_slot_`
    Slot queued_slot_;
  };

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop() { Clear(); }

  SimTime Now() const { return now_; }

  // Takes the next place in the event order at `when` (clamped to now if in the past).
  Slot Reserve(SimTime when) { return Slot{when < now_ ? now_ : when, next_seq_++}; }

  // Queues an event of `target` in `slot`, a reservation that must not be in the past.
  void QueueAt(Slot slot, Target& target);

  // Queues `cb` in `slot`, boxed: for cold callers.
  void QueueAt(Slot slot, Callback cb);

  // Schedules an event of `target` at absolute time `when` (clamped to now if in the
  // past).
  void ScheduleAt(SimTime when, Target& target) { QueueAt(Reserve(when), target); }

  // Schedules `cb` at absolute time `when` (clamped to now if in the past).
  void ScheduleAt(SimTime when, Callback cb) { QueueAt(Reserve(when), std::move(cb)); }

  // Schedules `cb` `delay` after the current time.
  void ScheduleAfter(SimDuration delay, Callback cb) { ScheduleAt(now_ + delay, std::move(cb)); }

  // Runs events until the queue is empty or simulated time reaches `deadline`.
  // Returns the number of events executed.
  uint64_t RunUntil(SimTime deadline);

  // Runs until the queue is drained completely.
  uint64_t RunToCompletion();

  // Drops every pending event unrun. A boxed callback is destroyed with whatever it
  // holds; any other target is left alone. Owners call it before tearing down what
  // those callbacks hold. Teardown only: a Timer whose wakeup was cleared never fires
  // again.
  void Clear();

  bool Empty() const { return heap_.empty(); }
  size_t PendingEvents() const { return heap_.size(); }

 private:
  class Box;

  // A queued event: its slot and its target.
  struct Key {
    SimTime when;
    uint64_t seq;
    Target* target;
  };
  // One 128-bit compare, free of branches: the order of two random keys is a coin
  // flip that a branch would mispredict half the time.
  static bool Before(const Key& a, const Key& b) {
    using Order = unsigned __int128;
    return ((Order{a.when.nanos()} << 64) | a.seq) < ((Order{b.when.nanos()} << 64) | b.seq);
  }

  // Pops the earliest event and runs it.
  void RunNext();

  SimTime now_;
  uint64_t next_seq_ = 0;
  std::vector<Key> heap_;  // 4-ary min-heap: the children of i are 4i+1..4i+4
  Box* boxes_ = nullptr;   // every boxed callback not yet run, linked through the boxes
};

}  // namespace tcprx

#endif  // SRC_UTIL_EVENT_LOOP_H_
