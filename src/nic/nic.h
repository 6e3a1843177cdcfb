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
//
// Frames arrive from the wire and leave for it by reference (std::vector<uint8_t>&&):
// receiving one moves the buffer into a pooled Packet, Transmit hands it to the egress
// link, and neither copies it.
//
// Quiet queues without a wakeup per frame: an arrival at a queue that polls, or that
// already has its interrupt pending, raises nothing; it only lands on the ring and
// updates the stats and the moderation state, and those replay exactly from the
// frame's arrival time. So while every rx queue is quiet, a NIC with an attached
// ingress link pulls that link (SimplexLink::StartPull) and takes the frames due so
// far whenever anything looks at a ring or its counters (RxEmpty, RxQueued, PopRx,
// stats), before an interrupt runs its handler, before a queue stops being quiet
// (leaves poll mode, or takes its interrupt without entering poll mode), and when the
// bed reads the harness counters (TakeDueFrames). Each is received with its own
// arrival time, in arrival order, so steering, ring overflow, the moderation state and
// the stats come out exactly as if each frame had been delivered by its own event. A
// queue that is idle (neither polling nor pending) must raise an interrupt at its next
// arrival, so the NIC pushes then: a multi-queue NIC with any idle queue takes every
// frame from its link's wakeups.

#ifndef SRC_NIC_NIC_H_
#define SRC_NIC_NIC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
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

class SimulatedNic final : private SimplexLink::Receiver {
 public:
  SimulatedNic(int id, const NicConfig& config, EventLoop& loop, PacketPool& pool);
  SimulatedNic(const SimulatedNic&) = delete;
  SimulatedNic& operator=(const SimulatedNic&) = delete;

  // ---- Link side -------------------------------------------------------------------
  // A frame arrived from the wire now. Stamps offload metadata, steers it to an rx
  // queue (RSS hash of the 4-tuple, or round-robin with RSS off), enqueues to that ring
  // (dropping on overflow), and raises the queue's interrupt unless it is being
  // polled.
  void DeliverFromWire(std::vector<uint8_t>&& frame) {
    ReceiveFromWire(std::move(frame), loop_.Now());
  }

  // The link whose DeliverFn feeds this NIC. Once attached, the NIC pulls it while
  // every rx queue is quiet.
  void AttachIngress(SimplexLink* link) { ingress_ = link; }

  // Takes the frames due before the running event from a pulled ingress link: what
  // per-frame delivery would have received by now. Every ring and counter read below
  // calls it first; a reader of what receiving does elsewhere (the harness counters)
  // calls it itself.
  void TakeDueFrames() {
    if (pulling_) {
      ingress_->PullBefore(loop_.Current());
    }
  }

  // Transmit path: hand a fully built frame to the attached egress link.
  void Transmit(std::vector<uint8_t>&& frame);
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

  PacketPtr PopRx(size_t queue) {
    TakeDueFrames();
    return queues_[queue].ring.Pop().value_or(nullptr);
  }
  bool RxEmpty(size_t queue) {
    TakeDueFrames();
    return queues_[queue].ring.Empty();
  }
  size_t RxQueued(size_t queue) {
    TakeDueFrames();
    return queues_[queue].ring.Size();
  }

  int id() const { return id_; }
  size_t num_rx_queues() const { return queues_.size(); }

  struct Stats {
    uint64_t rx_frames = 0;
    uint64_t rx_dropped = 0;   // ring overflow
    uint64_t rx_csum_good = 0;
    uint64_t rx_csum_bad = 0;  // frames whose TCP checksum failed offload verification
    uint64_t tx_frames = 0;
  };
  // Both count the frames due so far, pulled or not.
  const Stats& stats() {
    TakeDueFrames();
    return stats_;
  }
  // Per-queue delivery count, for steering-distribution assertions.
  uint64_t rx_frames_on_queue(size_t queue) {
    TakeDueFrames();
    return queues_[queue].rx_frames;
  }

 private:
  // One rx queue; it is its own interrupt event.
  struct RxQueue final : EventLoop::Target {
    explicit RxQueue(SimulatedNic& owner) : nic(owner), ring(kRxRingEntries) {}
    // The interrupt: takes the frames due, then runs the handler unless the queue was
    // polled dry meanwhile.
    void Fire(EventLoop::Slot slot) override;
    // An arrival raises no interrupt: the queue polls or its interrupt is pending.
    bool quiet() const { return poll_mode || interrupt_pending; }

    SimulatedNic& nic;
    SpscRing<PacketPtr> ring;
    std::function<void()> on_interrupt;
    bool poll_mode = false;
    bool interrupt_pending = false;
    uint64_t rx_frames = 0;
  };

  // The one receive path: a frame that arrived from the wire at `arrival`.
  void ReceiveFromWire(std::vector<uint8_t>&& frame, SimTime arrival) override;
  size_t SteerQueue(const Packet& p);
  void MaybeRaiseInterrupt(size_t queue);
  // Pulls the ingress link while every queue is quiet and pushes otherwise. A caller
  // that made a queue stop being quiet took the frames due before it did.
  void UpdatePull();

  int id_;
  NicConfig config_;
  EventLoop& loop_;
  PacketPool& pool_;
  std::vector<RxQueue> queues_;  // sized once: each queue is an event target
  std::optional<RssHasher> rss_;  // only with several rx queues and RSS on
  size_t rr_next_queue_ = 0;  // round-robin spray when RSS is off
  SimplexLink* egress_ = nullptr;
  SimplexLink* ingress_ = nullptr;
  bool pulling_ = false;  // ingress_ is pulled: every queue is quiet
  bool link_busy_ = false;  // recent arrivals closer than kModerationGap
  SimTime last_arrival_;
  Stats stats_;
};

}  // namespace tcprx

#endif  // SRC_NIC_NIC_H_
