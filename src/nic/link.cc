#include "src/nic/link.h"

#include <cstddef>
#include <utility>

#include "src/util/harness_counters.h"
#include "src/wire/frame_buffer.h"

namespace tcprx {

void SimplexLink::Send(std::vector<uint8_t>&& frame) {
  for (const TapFn& tap : taps_) {
    tap(frame);
  }
  // Fault injection happens "on the wire": dropped frames still consumed link time at
  // the sender in reality, but for simplicity we drop before serialization — TCP's
  // behaviour only depends on the frame not arriving.
  const uint64_t offered = frames_offered_++;
  if (config_.burst_drop_period > 0 &&
      offered % config_.burst_drop_period >=
          config_.burst_drop_period - config_.burst_drop_length) {
    // Bursts land at the end of each period so connection setup always survives.
    ++frames_dropped_;
    RecycleFrameBuffer(std::move(frame));
    return;
  }
  if (config_.drop_probability > 0 && fault_rng_.NextBool(config_.drop_probability)) {
    ++frames_dropped_;
    RecycleFrameBuffer(std::move(frame));
    return;
  }
  uint64_t wire_bytes = frame.size();
  if (wire_bytes < kEthernetMinFrame) {
    wire_bytes = kEthernetMinFrame;  // minimum frame padding
  }
  wire_bytes += kEthernetWireOverhead;

  const uint64_t serialization_ns =
      (wire_bytes * 8 * 1'000'000'000ull + config_.bits_per_second - 1) /
      config_.bits_per_second;

  const SimTime start = loop_.Now() > busy_until_ ? loop_.Now() : busy_until_;
  busy_until_ = start + SimTime::FromNanos(serialization_ns);
  ++frames_sent_;

  if (config_.corrupt_probability > 0 &&
      fault_rng_.NextBool(config_.corrupt_probability) && !frame.empty()) {
    ++frames_corrupted_;
    const size_t at = fault_rng_.NextBelow(frame.size());
    frame[at] ^= static_cast<uint8_t>(1u << fault_rng_.NextBelow(8));
  }
  SimTime arrival = busy_until_ + config_.propagation_delay;
  if (config_.reorder_probability > 0 && fault_rng_.NextBool(config_.reorder_probability)) {
    ++frames_reordered_;
    arrival += config_.reorder_delay;
  }
  if (config_.duplicate_probability > 0 &&
      fault_rng_.NextBool(config_.duplicate_probability)) {
    ++frames_duplicated_;
    // The copy reserves its slot first, as when it was sent first; the original, due
    // 1 ns earlier, goes on the wire first so it is the one a wakeup waits for.
    const EventLoop::Slot copy_slot = loop_.Reserve(arrival + SimDuration::FromNanos(1));
    std::vector<uint8_t> copy = CopyFrame(frame);
    wire_.Push(loop_.Reserve(arrival), std::move(frame));
    wire_.Push(copy_slot, std::move(copy));
    return;
  }
  wire_.Push(loop_.Reserve(arrival), std::move(frame));
}

void SimplexLink::Fire(EventLoop::Slot slot) {
  if (puller_ != nullptr) {
    PullBefore(EventLoop::Slot{slot.when, slot.seq + 1});
  } else if (!wire_.empty() && wire_.head_slot() == slot) {
    deliver_(wire_.Pop());
  }
}

void SimplexLink::PullHead() {
  const SimTime arrival = wire_.head_slot().when;
  ++thread_harness_counters.frames_pulled;
  puller_->ReceiveFromWire(wire_.Pop(), arrival);
}

}  // namespace tcprx
