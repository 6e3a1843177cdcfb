// Open-addressing hash map for the per-packet lookups: flow demux, the software flow
// director, the local-address check and the route table.
//
// One flat array of slots, probed linearly from a Fibonacci-hashed home slot, so a
// lookup touches one or two adjacent slots instead of chasing a node pointer. Erase
// leaves a tombstone (or frees the slot when the next one is empty), which keeps every
// probe chain intact. The capacity is a power of two and the table grows before live
// entries plus tombstones pass half of it, so there is always an empty slot to stop a
// probe. An empty map owns no storage: nothing is allocated until the first insert.
//
// There is no iteration: callers only look up, insert and erase, so no result can
// depend on the slot order.

#ifndef SRC_UTIL_FLAT_MAP_H_
#define SRC_UTIL_FLAT_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace tcprx {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  // The value mapped to `key`, or nullptr.
  V* Find(const K& key) {
    const size_t i = Locate(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  const V* Find(const K& key) const {
    const size_t i = Locate(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  // Maps `key` to `value`, replacing any earlier value.
  void InsertOrAssign(const K& key, V value) {
    auto [mapped, inserted] = TryEmplace(key, value);
    if (!inserted) {
      *mapped = std::move(value);
    }
  }

  // Maps `key` to `value` unless it is already mapped. Returns the mapped value and
  // whether it was inserted. The pointer is valid until the next insert.
  std::pair<V*, bool> TryEmplace(const K& key, V value) {
    const size_t found = Locate(key);
    if (found != kNotFound) {
      return {&slots_[found].value, false};
    }
    if ((size_ + tombstones_ + 1) * 2 > slots_.size()) {
      Rehash();
    }
    // The first reusable slot on the probe path: a tombstone or the empty slot that
    // ends the path.
    size_t i = Home(key);
    while (slots_[i].state == State::kFull) {
      i = (i + 1) & Mask();
    }
    Slot& slot = slots_[i];
    if (slot.state == State::kTombstone) {
      --tombstones_;
    }
    slot.key = key;
    slot.value = std::move(value);
    slot.state = State::kFull;
    ++size_;
    return {&slot.value, true};
  }

  // Removes `key`; returns whether it was mapped.
  bool Erase(const K& key) {
    const size_t i = Locate(key);
    if (i == kNotFound) {
      return false;
    }
    // A slot followed by an empty one ends every probe path through it, so it can be
    // freed outright; otherwise the paths that continue past it need a tombstone.
    if (slots_[(i + 1) & Mask()].state == State::kEmpty) {
      slots_[i].state = State::kEmpty;
    } else {
      slots_[i].state = State::kTombstone;
      ++tombstones_;
    }
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  enum class State : uint8_t { kEmpty, kFull, kTombstone };
  struct Slot {
    K key{};
    V value{};
    State state = State::kEmpty;
  };
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  static constexpr size_t kMinCapacity = 8;

  size_t Mask() const { return slots_.size() - 1; }

  // Fibonacci hashing: the top bits of hash * 2^64/phi, so keys that differ only in
  // high bits (addresses 10.0.i.x) still spread over the table.
  size_t Home(const K& key) const {
    return static_cast<size_t>((static_cast<uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ull) >>
                               shift_);
  }

  size_t Locate(const K& key) const {
    if (size_ == 0) {
      return kNotFound;
    }
    for (size_t i = Home(key);; i = (i + 1) & Mask()) {
      const Slot& slot = slots_[i];
      if (slot.state == State::kEmpty) {
        return kNotFound;
      }
      if (slot.state == State::kFull && slot.key == key) {
        return i;
      }
    }
  }

  // Rebuilds the table, dropping tombstones, with live entries filling at most a
  // quarter of it after one more insert.
  void Rehash() {
    size_t capacity = kMinCapacity;
    while (capacity < (size_ + 1) * 4) {
      capacity *= 2;
    }
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    tombstones_ = 0;
    for (Slot& slot : old) {
      if (slot.state != State::kFull) {
        continue;
      }
      size_t i = Home(slot.key);
      while (slots_[i].state == State::kFull) {
        i = (i + 1) & Mask();
      }
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
  unsigned shift_ = 64;
};

}  // namespace tcprx

#endif  // SRC_UTIL_FLAT_MAP_H_
