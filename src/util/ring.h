// Fixed-capacity ring with one producer and one consumer.
//
// Its one user is the NIC's rx descriptor ring (SimulatedNic's RxQueue): the NIC pushes
// each frame it takes off the wire, the driver pops the frames when it polls, and a
// full ring drops the frame, as the hardware does. The simulator is single-threaded, so
// the ring needs no atomics. There is no tx ring (the NIC transmits straight onto its
// link) and no aggregation queue (the stack's ReceiveFrame calls the aggregator).
//
// The slots are raw storage: Push constructs an element in its slot and Pop destroys
// it, so an empty slot holds nothing, and teardown walks only the live range.

#ifndef SRC_UTIL_RING_H_
#define SRC_UTIL_RING_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "src/util/logging.h"

namespace tcprx {

template <typename T>
class SpscRing {
 public:
  // Capacity must be at least 1; the ring stores up to `capacity` elements.
  explicit SpscRing(size_t capacity)
      : size_(capacity + 1), slots_(std::allocator<T>().allocate(size_)) {
    TCPRX_CHECK(capacity >= 1);
  }
  // A moved-from ring is empty and holds no storage.
  SpscRing(SpscRing&& other) noexcept
      : size_(other.size_),
        slots_(std::exchange(other.slots_, nullptr)),
        head_(std::exchange(other.head_, 0)),
        tail_(std::exchange(other.tail_, 0)) {}
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;
  SpscRing& operator=(SpscRing&&) = delete;
  ~SpscRing() {
    if (slots_ == nullptr) {
      return;
    }
    for (size_t i = head_; i != tail_; i = Next(i)) {
      std::destroy_at(slots_ + i);
    }
    std::allocator<T>().deallocate(slots_, size_);
  }

  bool Empty() const { return head_ == tail_; }
  bool Full() const { return Next(tail_) == head_; }
  size_t Size() const { return tail_ >= head_ ? tail_ - head_ : size_ - head_ + tail_; }

  // Enqueues `item`. When the ring is full it returns false and `item`, taken by
  // value, is destroyed: a NIC drops a frame when its descriptor ring overflows.
  bool Push(T item) {
    if (Full()) {
      return false;
    }
    std::construct_at(slots_ + tail_, std::move(item));
    tail_ = Next(tail_);
    return true;
  }

  // Dequeues the oldest element, or nullopt when empty.
  std::optional<T> Pop() {
    if (Empty()) {
      return std::nullopt;
    }
    T* const slot = slots_ + head_;
    std::optional<T> item(std::move(*slot));
    std::destroy_at(slot);
    head_ = Next(head_);
    return item;
  }

  // Peeks at the oldest element without consuming it.
  const T* Front() const { return Empty() ? nullptr : slots_ + head_; }

 private:
  size_t Next(size_t i) const { return i + 1 == size_ ? 0 : i + 1; }

  size_t size_;  // slots: one more than the capacity, so a full ring never looks empty
  T* slots_;     // raw storage; the live elements are those from head_ up to tail_
  size_t head_ = 0;
  size_t tail_ = 0;
};

}  // namespace tcprx

#endif  // SRC_UTIL_RING_H_
