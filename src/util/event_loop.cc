#include "src/util/event_loop.h"

#include <limits>
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
  const Key key{slot.when, slot.seq, &target};
  if (spent_root_) {
    // Replace-top: the first event queued by a running one takes its key's place.
    spent_root_ = false;
    SiftDownFromRoot(key, std::exchange(earliest_child_, 0));
    return;
  }
  // Sift up: move parents down into the hole until the key fits. Each level compares
  // one key.
  size_t hole = heap_.size();
  heap_.emplace_back();
  uint64_t levels = 0;
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    ++levels;
    if (!Before(key, heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
  thread_harness_counters.event_key_compares += levels;
}

void EventLoop::SiftDownFromRoot(const Key key, size_t earliest_child) {
  // Move the earliest child up into the hole until `key` fits. A level with n children
  // compares n keys: n - 1 to find the earliest child, and that child with `key`; the
  // root's level compares one when its earliest child is known.
  const size_t size = heap_.size();
  size_t hole = 0;
  uint64_t compares = 0;
  for (;;) {
    const size_t first = 4 * hole + 1;
    if (first >= size) {
      break;
    }
    size_t best = first;
    if (earliest_child != 0) {
      best = earliest_child;
      earliest_child = 0;
      ++compares;
    } else {
      const size_t end = first + 4 < size ? first + 4 : size;
      compares += end - first;
      for (size_t child = first + 1; child < end; ++child) {
        best = Before(heap_[child], heap_[best]) ? child : best;
      }
    }
    if (!Before(heap_[best], key)) {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = key;
  thread_harness_counters.event_key_compares += compares;
}

void EventLoop::RunNext() {
  const Key top = heap_.front();
  now_ = top.when;
  current_seq_ = top.seq;
  ++thread_harness_counters.events_run;
  spent_root_ = true;
  earliest_child_ = 0;
  top.target->Fire(Slot{top.when, top.seq});
  if (!spent_root_) {
    return;  // an event queued during Fire took the root, or Fire cleared the loop
  }
  // Nothing was queued: remove the spent root as a pop would.
  spent_root_ = false;
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDownFromRoot(last);
  }
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

bool EventLoop::RunInPlace(const Slot slot) {
  if (!running_ || slot.when > deadline_) {
    return false;  // not inside a run, or past it
  }
  TCPRX_CHECK(Current() < slot);
  const Key key{slot.when, slot.seq, nullptr};
  if (spent_root_) {
    // The earliest pending key is the spent root's earliest child, if it has any.
    const size_t end = heap_.size() < 5 ? heap_.size() : 5;
    if (end > 1) {
      if (earliest_child_ == 0) {
        earliest_child_ = 1;
        for (size_t child = 2; child < end; ++child) {
          earliest_child_ = Before(heap_[child], heap_[earliest_child_]) ? child : earliest_child_;
        }
        thread_harness_counters.event_key_compares += end - 2;
      }
      ++thread_harness_counters.event_key_compares;
      if (Before(heap_[earliest_child_], key)) {
        return false;
      }
    }
  } else if (!heap_.empty()) {
    ++thread_harness_counters.event_key_compares;
    if (Before(heap_.front(), key)) {
      return false;
    }
  }
  now_ = slot.when;
  current_seq_ = slot.seq;
  ++thread_harness_counters.steps_in_place;
  return true;
}

uint64_t EventLoop::Run(SimTime deadline) {
  // A nested run would fire events under the running one's spent root.
  TCPRX_CHECK_MSG(!running_, "EventLoop run from inside a running event");
  running_ = true;
  deadline_ = deadline;
  uint64_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    RunNext();
    ++executed;
  }
  running_ = false;
  current_seq_ = next_seq_;
  return executed;
}

uint64_t EventLoop::RunUntil(SimTime deadline) {
  const uint64_t executed = Run(deadline);
  if (now_ < deadline) {
    now_ = deadline;
  }
  return executed;
}

uint64_t EventLoop::RunToCompletion() {
  return Run(SimTime::FromNanos(std::numeric_limits<uint64_t>::max()));
}

void EventLoop::Clear() {
  heap_.clear();
  spent_root_ = false;
  earliest_child_ = 0;
  while (boxes_ != nullptr) {
    delete boxes_;
  }
}

}  // namespace tcprx
