// Discrete-event scheduler.
//
// A single-threaded priority queue of timestamped callbacks. Ties are broken by
// insertion order so runs are fully deterministic. Everything in the testbed — link
// serialization, NIC interrupts, CPU batch completion, TCP timers — is an event here.

#ifndef SRC_UTIL_EVENT_LOOP_H_
#define SRC_UTIL_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/util/sim_time.h"

namespace tcprx {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  // One re-armable deadline: fires `on_fire` `delay` after the last Arm unless
  // cancelled first. It fires in the (time, seq) slot a ScheduleAfter at that Arm
  // would take, yet keeps one wakeup queued: a wakeup that finds the deadline moved
  // later re-queues itself in that slot, and an earlier deadline queues a new wakeup
  // that the old one defers to. It must outlive its wakeups and not move.
  class Timer {
   public:
    Timer(EventLoop& loop, Callback on_fire) : loop_(loop), on_fire_(std::move(on_fire)) {}
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    void Arm(SimDuration delay);
    void Cancel() { armed_ = false; }
    bool armed() const { return armed_; }

   private:
    void QueueWakeup();
    void Wake(uint64_t seq);

    EventLoop& loop_;
    Callback on_fire_;
    bool armed_ = false;
    SimTime deadline_;
    uint64_t seq_ = 0;
    bool queued_ = false;  // the live wakeup is queued at (queued_at_, queued_seq_)
    SimTime queued_at_;
    uint64_t queued_seq_ = 0;
  };

  SimTime Now() const { return now_; }

  // Schedules `cb` at absolute time `when` (clamped to now if in the past).
  void ScheduleAt(SimTime when, Callback cb);

  // Schedules `cb` `delay` after the current time.
  void ScheduleAfter(SimDuration delay, Callback cb) { ScheduleAt(now_ + delay, std::move(cb)); }

  // Runs events until the queue is empty or simulated time reaches `deadline`.
  // Returns the number of events executed.
  uint64_t RunUntil(SimTime deadline);

  // Runs until the queue is drained completely.
  uint64_t RunToCompletion();

  // Drops every pending event unrun, destroying its callback and whatever the
  // callback holds. Owners call it before tearing down what those callbacks hold.
  // Teardown only: a Timer whose wakeup was cleared never fires again.
  void Clear() { queue_ = {}; }

  bool Empty() const { return queue_.empty(); }
  size_t PendingEvents() const { return queue_.size(); }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;  // FIFO among same-time events
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  SimTime now_;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace tcprx

#endif  // SRC_UTIL_EVENT_LOOP_H_
