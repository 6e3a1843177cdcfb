#include "src/util/event_loop.h"

#include <utility>

namespace tcprx {

void EventLoop::ScheduleAt(SimTime when, Callback cb) {
  if (when < now_) {
    when = now_;
  }
  queue_.push(Event{when, next_seq_++, std::move(cb)});
}

void EventLoop::Timer::Arm(SimDuration delay) {
  deadline_ = loop_.now_ + delay;
  seq_ = loop_.next_seq_++;
  armed_ = true;
  if (!queued_ || deadline_ < queued_at_) {
    QueueWakeup();
  }
}

void EventLoop::Timer::QueueWakeup() {
  queued_ = true;
  queued_at_ = deadline_;
  queued_seq_ = seq_;
  loop_.queue_.push(Event{deadline_, seq_, [this, seq = seq_] { Wake(seq); }});
}

void EventLoop::Timer::Wake(uint64_t seq) {
  if (seq != queued_seq_) {
    return;  // superseded by a wakeup for an earlier deadline
  }
  queued_ = false;
  if (armed_ && seq != seq_) {
    QueueWakeup();  // re-armed since, for a later deadline
  } else if (armed_) {
    armed_ = false;
    on_fire_();
  }
}

uint64_t EventLoop::RunUntil(SimTime deadline) {
  uint64_t executed = 0;
  while (!queue_.empty() && queue_.top().when <= deadline) {
    // priority_queue::top returns const&; moving the callback out requires the pop
    // dance below to stay well-defined.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.when;
    ev.cb();
    ++executed;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return executed;
}

uint64_t EventLoop::RunToCompletion() {
  uint64_t executed = 0;
  while (!queue_.empty()) {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.when;
    ev.cb();
    ++executed;
  }
  return executed;
}

}  // namespace tcprx
