#include "src/util/event_loop.h"

#include <utility>

#include "src/util/harness_counters.h"
#include "src/util/logging.h"

namespace tcprx {

// A boxed callback: a target that runs its callback once and frees itself. Each live
// box is on the loop's list, so Clear can free the ones that never ran.
class EventLoop::Box final : public Target {
 public:
  Box(EventLoop& loop, Callback cb) : loop_(loop), cb_(std::move(cb)), next_(loop.boxes_) {
    if (next_ != nullptr) {
      next_->prev_ = this;
    }
    loop.boxes_ = this;
  }
  Box(const Box&) = delete;
  Box& operator=(const Box&) = delete;
  ~Box() {
    (prev_ != nullptr ? prev_->next_ : loop_.boxes_) = next_;
    if (next_ != nullptr) {
      next_->prev_ = prev_;
    }
  }

  void Fire(Slot /*slot*/) override {
    // Freed first, so the callback may even Clear the loop; what it holds lives on in
    // `cb` until it returns.
    const Callback cb = std::move(cb_);
    delete this;
    cb();
  }

 private:
  EventLoop& loop_;
  Callback cb_;
  Box* prev_ = nullptr;
  Box* next_;
};

void EventLoop::QueueAt(Slot slot, Callback cb) { QueueAt(slot, *new Box(*this, std::move(cb))); }

void EventLoop::QueueAt(Slot slot, Target& target) {
  TCPRX_CHECK(slot.when >= now_);
  // Sift up: move parents down into the hole until the key fits.
  const Key key{slot.when, slot.seq, &target};
  size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (!Before(key, heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventLoop::RunNext() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const size_t size = heap_.size();
  if (size > 0) {
    // Sift `last` down from the root: move the earliest child up into the hole.
    size_t hole = 0;
    for (;;) {
      const size_t first = 4 * hole + 1;
      if (first >= size) {
        break;
      }
      const size_t end = first + 4 < size ? first + 4 : size;
      size_t best = first;
      for (size_t child = first + 1; child < end; ++child) {
        best = Before(heap_[child], heap_[best]) ? child : best;
      }
      if (!Before(heap_[best], last)) {
        break;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
  }

  now_ = top.when;
  ++thread_harness_counters.events_run;
  top.target->Fire(Slot{top.when, top.seq});
}

void EventLoop::Timer::Arm(SimDuration delay) {
  deadline_ = loop_.Reserve(loop_.now_ + delay);
  armed_ = true;
  if (!queued_ || deadline_.when < queued_slot_.when) {
    QueueWakeup();
  }
}

void EventLoop::Timer::QueueWakeup() {
  queued_ = true;
  queued_slot_ = deadline_;
  loop_.QueueAt(deadline_, *this);
}

void EventLoop::Timer::Wake(uint64_t seq) {
  if (seq != queued_slot_.seq) {
    return;  // superseded by a wakeup for an earlier deadline
  }
  queued_ = false;
  if (armed_ && seq != deadline_.seq) {
    QueueWakeup();  // re-armed since, for a later deadline
  } else if (armed_) {
    armed_ = false;
    on_fire_();
  }
}

uint64_t EventLoop::RunUntil(SimTime deadline) {
  uint64_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    RunNext();
    ++executed;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return executed;
}

uint64_t EventLoop::RunToCompletion() {
  uint64_t executed = 0;
  while (!heap_.empty()) {
    RunNext();
    ++executed;
  }
  return executed;
}

void EventLoop::Clear() {
  heap_.clear();
  while (boxes_ != nullptr) {
    delete boxes_;
  }
}

}  // namespace tcprx
