// Items waiting for their places in the event order, behind one wakeup.
//
// An owner of many deadlines (a link's frames in flight, a core's cross-core
// hand-offs) reserves an EventLoop slot for each item when it is made and keeps the
// items here, sorted by slot. Only the head has a wakeup queued, and the wakeup is the
// owner itself as an EventLoop target, fired in the head's slot; popping the head
// queues the next head's wakeup. An item that overtakes the head (reserved later, due
// earlier) queues a wakeup of its own, so every wakeup pops exactly one item, in
// exactly the order one event per item would run, and each fires in the slot of the
// head it pops.
//
// The owner may turn the wakeups off and take its items itself, each once the event
// order reaches its slot (a link whose far end raises no interrupt meanwhile). A
// wakeup queued before then still fires in its item's slot, and the item may be gone
// by then; turned back on, the wakeups resume from the head.

#ifndef SRC_UTIL_SLOT_QUEUE_H_
#define SRC_UTIL_SLOT_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/event_loop.h"

namespace tcprx {

template <typename T>
class SlotQueue {
 public:
  // `owner` is fired once per item and must outlive its wakeups.
  SlotQueue(EventLoop& loop, EventLoop::Target& owner) : loop_(loop), owner_(owner) {}
  SlotQueue(const SlotQueue&) = delete;
  SlotQueue& operator=(const SlotQueue&) = delete;

  bool empty() const { return head_ == entries_.size(); }
  size_t size() const { return entries_.size() - head_; }

  // The slot of the next wakeup to fire. Not empty.
  const EventLoop::Slot& head_slot() const { return entries_[head_].slot; }

  // Puts `item` in `slot`'s place, searching from the back: only an item that
  // overtakes another ever lands ahead of it.
  void Push(EventLoop::Slot slot, T&& item) {
    size_t at = entries_.size();
    while (at > head_ && slot < entries_[at - 1].slot) {
      --at;
    }
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(at),
                    Entry{slot, false, std::move(item)});
    if (at == head_ && wakeups_) {
      QueueWakeup(entries_[at]);  // a new head; an overtaken head keeps its own wakeup
    }
  }

  // Turns the wakeups off or back on; on, the head gets a wakeup unless it has one.
  void SetWakeups(bool on) {
    wakeups_ = on;
    if (on && !empty() && !entries_[head_].wakeup_queued) {
      QueueWakeup(entries_[head_]);
    }
  }

  // Takes the head, and queues the next head's wakeup unless it has one or the
  // wakeups are off. Not empty.
  T Pop() {
    T item = std::move(entries_[head_].item);
    ++head_;
    if (head_ == entries_.size()) {
      entries_.clear();
      head_ = 0;
      return item;
    }
    if (wakeups_ && !entries_[head_].wakeup_queued) {
      QueueWakeup(entries_[head_]);
    }
    constexpr size_t kCompactAfter = 32;
    if (head_ >= kCompactAfter && head_ * 2 >= entries_.size()) {
      entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return item;
  }

 private:
  struct Entry {
    EventLoop::Slot slot;
    bool wakeup_queued;
    T item;
  };

  void QueueWakeup(Entry& entry) {
    entry.wakeup_queued = true;
    loop_.QueueAt(entry.slot, owner_);
  }

  EventLoop& loop_;
  EventLoop::Target& owner_;
  std::vector<Entry> entries_;  // sorted by slot; the head is entries_[head_]
  size_t head_ = 0;             // popped entries before it are compacted away
  bool wakeups_ = true;
};

}  // namespace tcprx

#endif  // SRC_UTIL_SLOT_QUEUE_H_
