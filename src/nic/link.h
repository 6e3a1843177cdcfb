// Point-to-point Ethernet link model.
//
// Each direction serializes frames at the configured line rate (including preamble,
// CRC and inter-frame gap, which is what makes a saturated Gigabit link top out at the
// paper's ~81,000 MTU packets per second) and delivers them after a fixed propagation
// latency.
//
// Frames move by reference, as std::vector<uint8_t>&&, from Send to the DeliverFn or
// the Receiver that pulls them: no hop takes a frame by value, so its buffer is moved
// only into and out of the wire queue that holds it, and no byte is copied.

#ifndef SRC_NIC_LINK_H_
#define SRC_NIC_LINK_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/util/event_loop.h"
#include "src/util/rng.h"
#include "src/util/slot_queue.h"

namespace tcprx {

// Ethernet on-wire overhead beyond the frame bytes: 7B preamble + 1B SFD + 4B FCS +
// 12B inter-frame gap.
inline constexpr uint64_t kEthernetWireOverhead = 24;
inline constexpr uint64_t kEthernetMinFrame = 60;  // before FCS

struct LinkConfig {
  uint64_t bits_per_second = 1'000'000'000;
  // One-way latency: wire + switch + peer interrupt/stack turnaround. Calibrated so a
  // 1-byte request/response transaction lands near the paper's ~127 us round trip.
  SimDuration propagation_delay = SimDuration::FromMicros(55);

  // Fault injection (deterministic, per-link RNG). Used by the robustness tests to
  // prove TCP recovery and Receive Aggregation compose correctly: aggregation must
  // remain transparent under loss, duplication and reordering (paper section 3.6).
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;           // flip one bit anywhere in the frame, headers too
  // Deterministic burst loss: every `burst_drop_period` frames, drop
  // `burst_drop_length` consecutive frames (0 = off). Models the correlated losses
  // (switch buffer overruns) where SACK-style recovery matters most.
  uint64_t burst_drop_period = 0;
  uint64_t burst_drop_length = 0;
  double reorder_probability = 0.0;           // frame held back by reorder_delay
  SimDuration reorder_delay = SimDuration::FromMicros(40);
  uint64_t fault_seed = 0x7c9;
  bool operator==(const LinkConfig&) const = default;
};

// One direction of a link. Frames queue behind the transmitter when offered faster
// than line rate (an infinite tx queue: senders are paced by TCP, not by this queue).
// Frames in flight wait in a SlotQueue, each in the event-order slot its own arrival
// event would take, reserved when it is sent, in exactly the order per-frame events
// would run, a reordered or duplicated frame that lands early included.
//
// Pushed (the default), the link is their wakeup and hands each to the DeliverFn in
// its own slot. Pulled (StartPull), the far end is a NIC where no arrival can raise an
// interrupt (every rx queue polls or has its interrupt pending): the frames queue no
// wakeups, and the Receiver takes each one, with its arrival time, once the event
// order has passed its slot (PullBefore), whenever it looks. A wakeup queued before
// the pull began still fires in its frame's slot and hands over everything due through
// it. The link must outlive its wakeups and not move.
class SimplexLink final : public EventLoop::Target {
 public:
  using DeliverFn = std::function<void(std::vector<uint8_t>&&)>;

  // The far end of a pulled link.
  class Receiver {
   public:
    // `frame` arrived at `arrival`, at or before the running event's time.
    virtual void ReceiveFromWire(std::vector<uint8_t>&& frame, SimTime arrival) = 0;

   protected:
    ~Receiver() = default;
  };

  SimplexLink(const LinkConfig& config, EventLoop& loop, DeliverFn deliver)
      : config_(config),
        loop_(loop),
        deliver_(std::move(deliver)),
        wire_(loop, *this),
        fault_rng_(config.fault_seed) {}
  SimplexLink(const SimplexLink&) = delete;
  SimplexLink& operator=(const SimplexLink&) = delete;

  // Transmits `frame`; it arrives at the far end after serialization + propagation.
  void Send(std::vector<uint8_t>&& frame);

  // Taps are invoked for every frame offered to the link (before fault injection),
  // e.g. for tcpdump-style tracing or pcap capture. Multiple taps may coexist.
  using TapFn = std::function<void(std::span<const uint8_t>)>;
  void add_tap(TapFn tap) { taps_.push_back(std::move(tap)); }
  bool has_taps() const { return !taps_.empty(); }

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_corrupted() const { return frames_corrupted_; }
  uint64_t frames_duplicated() const { return frames_duplicated_; }
  uint64_t frames_reordered() const { return frames_reordered_; }

  // Frames sent but not yet delivered.
  size_t frames_in_flight() const { return wire_.size(); }

  // Pull mode: frames queue no wakeups and go to `receiver`, not the DeliverFn, until
  // StopPull, which resumes the wakeups from the head. The receiver must take every
  // frame due before the running event (PullBefore) before it stops pulling.
  void StartPull(Receiver& receiver) {
    puller_ = &receiver;
    wire_.SetWakeups(false);
  }
  void StopPull() {
    puller_ = nullptr;
    wire_.SetWakeups(true);
  }
  // Hands the receiver, oldest slot first, every frame due before `bound`. Pulled.
  void PullBefore(EventLoop::Slot bound) {
    while (!wire_.empty() && wire_.head_slot() < bound) {
      PullHead();
    }
  }

  // Time the transmitter frees up; useful for utilization assertions in tests.
  SimTime busy_until() const { return busy_until_; }

 private:
  // The wakeup: delivers the head frame, or, pulled, everything due through `slot`. A
  // wakeup whose frame was pulled meanwhile finds another head, or none, and is spent.
  void Fire(EventLoop::Slot slot) override;
  void PullHead();

  LinkConfig config_;
  EventLoop& loop_;
  DeliverFn deliver_;
  Receiver* puller_ = nullptr;  // while pulled
  std::vector<TapFn> taps_;
  SlotQueue<std::vector<uint8_t>> wire_;  // frames in flight, each in its arrival's slot
  SimTime busy_until_;
  Rng fault_rng_;
  uint64_t frames_offered_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_corrupted_ = 0;
  uint64_t frames_duplicated_ = 0;
  uint64_t frames_reordered_ = 0;
};

}  // namespace tcprx

#endif  // SRC_NIC_LINK_H_
