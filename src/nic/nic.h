// Simulated network interface card (receive side of the host under test).
//
// Models the properties the paper's mechanisms depend on: rx descriptor rings of
// finite size (overflow = drop, which is how CPU saturation turns into TCP loss and
// thus into reduced throughput), rx checksum offload (a hard precondition for Receive
// Aggregation, section 3.1), and interrupt signalling with NAPI-style poll mode (the
// host disables further interrupts while it is draining the ring).
//
// Multi-queue receive (the src/smp/ subsystem): the NIC can expose N rx queues, each
// with its own ring, interrupt and poll state. A Toeplitz RSS hash of the 4-tuple
// steers every frame of a flow to the same queue, so each queue can be owned by one
// core without locks. With RSS disabled frames are sprayed round-robin — the
// misdirected-flow baseline. One queue (the default) reproduces the single-core NIC
// exactly.
//
// All NIC work is free of host CPU cycles — it is hardware. The driver module charges
// the per-frame driver cycles when it touches the ring.

#ifndef SRC_NIC_NIC_H_
#define SRC_NIC_NIC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/buffer/packet.h"
#include "src/nic/link.h"
#include "src/nic/rss.h"
#include "src/util/event_loop.h"
#include "src/util/ring.h"
#include "src/wire/frame.h"

namespace tcprx {

// Descriptors in each rx queue's ring.
inline constexpr size_t kRxRingEntries = 256;
// Interrupt assertion latency after a frame lands while not in poll mode.
inline constexpr SimDuration kInterruptDelay = SimDuration::FromMicros(4);
// Frames arriving closer together than this mark the link busy (see moderation_delay).
inline constexpr SimDuration kModerationGap = SimDuration::FromMicros(50);

struct NicConfig {
  bool rx_checksum_offload = true;
  // Number of rx queues (1 = the classic single-ring NIC). The multi-core testbed
  // sets this to the core count and attaches queue c to core c's driver.
  size_t num_rx_queues = 1;
  // Flow steering across queues; only consulted when num_rx_queues > 1.
  RssConfig rss;
  // Adaptive interrupt moderation (e1000 ITR style): when consecutive frames arrive
  // closer than kModerationGap, the next interrupt is deferred by `moderation_delay`
  // instead of kInterruptDelay so bulk traffic is serviced in batches — the batching
  // that lets Receive Aggregation find runs of in-sequence packets — while sparse
  // (latency-sensitive) traffic still gets the fast interrupt path.
  SimDuration moderation_delay = SimDuration::FromMicros(120);
  bool operator==(const NicConfig&) const = default;
};

class SimulatedNic {
 public:
  SimulatedNic(int id, const NicConfig& config, EventLoop& loop, PacketPool& pool);

  // ---- Link side -------------------------------------------------------------------
  // A frame arrived from the wire. Stamps offload metadata, steers it to an rx queue
  // (RSS hash of the 4-tuple, or round-robin with RSS off), enqueues to that ring
  // (dropping on overflow), and raises the queue's interrupt unless it is being
  // polled.
  void DeliverFromWire(std::vector<uint8_t> frame);

  // Transmit path: hand a fully built frame to the attached egress link.
  void Transmit(std::vector<uint8_t> frame);
  void AttachEgress(SimplexLink* link) { egress_ = link; }

  // ---- Host (driver) side ---------------------------------------------------------
  // Per-queue interrupt handlers; a single-queue NIC has only queue 0.
  void set_on_rx_interrupt(size_t queue, std::function<void()> fn) {
    queues_[queue].on_interrupt = std::move(fn);
  }

  // While a queue is in poll mode it never schedules interrupts; the owning core
  // re-enables them when it has drained the ring.
  void SetQueuePollMode(size_t queue, bool enabled);
  bool poll_mode(size_t queue) const { return queues_[queue].poll_mode; }

  PacketPtr PopRx(size_t queue) { return queues_[queue].ring.Pop().value_or(nullptr); }
  bool RxEmpty(size_t queue) const { return queues_[queue].ring.Empty(); }
  size_t RxQueued(size_t queue) const { return queues_[queue].ring.Size(); }

  int id() const { return id_; }
  size_t num_rx_queues() const { return queues_.size(); }

  struct Stats {
    uint64_t rx_frames = 0;
    uint64_t rx_dropped = 0;   // ring overflow
    uint64_t rx_csum_good = 0;
    uint64_t rx_csum_bad = 0;  // frames whose TCP checksum failed offload verification
    uint64_t tx_frames = 0;
  };
  const Stats& stats() const { return stats_; }
  // Per-queue delivery count, for steering-distribution assertions.
  uint64_t rx_frames_on_queue(size_t queue) const { return queues_[queue].rx_frames; }

 private:
  // One rx queue; it is its own interrupt event.
  struct RxQueue final : EventLoop::Target {
    RxQueue() : ring(kRxRingEntries) {}
    // The interrupt: runs the handler unless the queue was polled dry meanwhile.
    void Fire(EventLoop::Slot slot) override;

    SpscRing<PacketPtr> ring;
    std::function<void()> on_interrupt;
    bool poll_mode = false;
    bool interrupt_pending = false;
    uint64_t rx_frames = 0;
  };

  size_t SteerQueue(const Packet& p);
  void MaybeRaiseInterrupt(size_t queue);

  int id_;
  NicConfig config_;
  EventLoop& loop_;
  PacketPool& pool_;
  std::vector<RxQueue> queues_;  // sized once: each queue is an event target
  std::optional<RssHasher> rss_;  // only with several rx queues and RSS on
  size_t rr_next_queue_ = 0;  // round-robin spray when RSS is off
  SimplexLink* egress_ = nullptr;
  bool link_busy_ = false;  // recent arrivals closer than kModerationGap
  SimTime last_arrival_;
  Stats stats_;
};

}  // namespace tcprx

#endif  // SRC_NIC_NIC_H_
