// Point-to-point Ethernet link model.
//
// Each direction serializes frames at the configured line rate (including preamble,
// CRC and inter-frame gap, which is what makes a saturated Gigabit link top out at the
// paper's ~81,000 MTU packets per second) and delivers them after a fixed propagation
// latency.

#ifndef SRC_NIC_LINK_H_
#define SRC_NIC_LINK_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/util/event_loop.h"
#include "src/util/rng.h"

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
  double corrupt_probability = 0.0;           // flip one payload bit in transit
  // Deterministic burst loss: every `burst_drop_period` frames, drop
  // `burst_drop_length` consecutive frames (0 = off). Models the correlated losses
  // (switch buffer overruns) where SACK-style recovery matters most.
  uint64_t burst_drop_period = 0;
  uint64_t burst_drop_length = 0;
  double reorder_probability = 0.0;           // frame held back by reorder_delay
  SimDuration reorder_delay = SimDuration::FromMicros(40);
  uint64_t fault_seed = 0x7c9;
};

// One direction of a link. Frames queue behind the transmitter when offered faster
// than line rate (an infinite tx queue: senders are paced by TCP, not by this queue).
// A frame in flight waits in a recycled slot, and its arrival event holds only the
// slot index, so a hop boxes nothing on the heap. The link must outlive its events.
class SimplexLink {
 public:
  using DeliverFn = std::function<void(std::vector<uint8_t>)>;

  SimplexLink(const LinkConfig& config, EventLoop& loop, DeliverFn deliver)
      : config_(config), loop_(loop), deliver_(std::move(deliver)), fault_rng_(config.fault_seed) {}

  // Transmits `frame`; it arrives at the far end after serialization + propagation.
  void Send(std::vector<uint8_t> frame);

  // Taps are invoked for every frame offered to the link (before fault injection),
  // e.g. for tcpdump-style tracing or pcap capture. Multiple taps may coexist.
  using TapFn = std::function<void(std::span<const uint8_t>)>;
  void add_tap(TapFn tap) { taps_.push_back(std::move(tap)); }

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_corrupted() const { return frames_corrupted_; }
  uint64_t frames_duplicated() const { return frames_duplicated_; }
  uint64_t frames_reordered() const { return frames_reordered_; }

  // Time the transmitter frees up; useful for utilization assertions in tests.
  SimTime busy_until() const { return busy_until_; }

 private:
  // Parks `frame` in a free slot and delivers it from there at `when`.
  void ScheduleDelivery(SimTime when, std::vector<uint8_t> frame);

  LinkConfig config_;
  EventLoop& loop_;
  DeliverFn deliver_;
  std::vector<TapFn> taps_;
  std::vector<std::vector<uint8_t>> in_flight_;  // slots, indexed by the events
  std::vector<uint32_t> free_slots_;
  SimTime busy_until_;
  Rng fault_rng_;
  uint64_t frames_offered_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_corrupted_ = 0;
  uint64_t frames_duplicated_ = 0;
  uint64_t frames_reordered_ = 0;
};

}  // namespace tcprx

#endif  // SRC_NIC_LINK_H_
