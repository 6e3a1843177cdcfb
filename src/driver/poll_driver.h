// NAPI-style poll-mode receive driver.
//
// Owns the interrupt/poll discipline for a set of NIC rx queues feeding one
// NetworkStack on one core: an interrupt enters poll mode (masking further interrupts
// on the owned queues), the poll loop drains frames round-robin — one frame per step
// so CPU busy time advances at frame granularity — and when every ring is empty the
// driver performs the work-conserving aggregation flush (section 3.5 of the paper:
// "whenever the aggregation routine runs out of network packets to process, it
// immediately clears out all partially aggregated packets") and re-enables interrupts.
//
// In the multi-core receive subsystem (src/smp/) each core owns one PollDriver
// attached to its RSS queue on every NIC. A steering hook (PollDriver::Steering)
// supports the software (RPS-style) path for misdirected flows: a frame whose flow is
// owned by another core is charged a cross-core enqueue on the polling core, then
// handed to the owner's backlog, which drains ahead of the hardware rings.
//
// The driver is the event target of its own poll steps (one queued at a time) and of
// the frames handed to it, which wait in a slot-sorted queue until their hand-off
// time, as a link's frames in flight do. Steps run in place (EventLoop::RunInPlace),
// each in the slot its event would take, while no other event is due first: an
// interrupt's first step, and each step's successor, so a burst drains in one event
// while nothing else is due. Each step's transmit batch, which the stack leaves unqueued
// in the driver's own record (RxSink::HoldDriverBatch), is sent once the step's work at
// the current time is done: in place when nothing precedes its slot, or else by the
// next step's event when that slot directly follows the batch's, since nothing can run
// between two adjacent slots. Only a batch whose step reserved something in between (a
// hand-off to another core) or that ends the poll is queued as an event of its own. A
// step composes its values in place: the next step's time and the held batch are
// written into the driver's own variables, not returned as temporaries.

#ifndef SRC_DRIVER_POLL_DRIVER_H_
#define SRC_DRIVER_POLL_DRIVER_H_

#include <cstdint>
#include <vector>

#include "src/cpu/cpu_clock.h"
#include "src/driver/rx_sink.h"
#include "src/nic/nic.h"
#include "src/util/event_loop.h"
#include "src/util/slot_queue.h"

namespace tcprx {

class PollDriver final : public EventLoop::Target {
 public:
  PollDriver(EventLoop& loop, RxSink& stack, CpuClock& cpu)
      : loop_(loop), stack_(stack), cpu_(cpu), handoffs_(loop, *this) {}
  PollDriver(const PollDriver&) = delete;
  PollDriver& operator=(const PollDriver&) = delete;

  // Registers a NIC rx queue; its interrupts now wake this driver. The single-argument
  // form attaches queue 0 (the classic single-core wiring).
  void AttachNic(SimulatedNic* nic) { AttachNicQueue(nic, 0); }
  void AttachNicQueue(SimulatedNic* nic, size_t queue);

  // Cross-core flow steering, asked about every frame popped from a hardware ring: it
  // returns the driver owning the frame's flow (nullptr or the polling driver: process
  // locally) and charges any steering costs into `charger`, the polling `core`'s.
  class Steering {
   public:
    virtual PollDriver* SteerFrame(size_t core, const Packet& frame, Charger& charger) = 0;

   protected:
    ~Steering() = default;
  };
  // `steering` must outlive the driver, which polls as `core`.
  void set_steering(Steering& steering, size_t core) { steering_ = &steering; core_ = core; }

  // Hands a frame steered from another core to this driver at time `when` (once the
  // remote core's enqueue work has completed). Bounded like Linux's per-core backlog;
  // overflow drops the frame, turning sustained misdirection into TCP loss.
  void HandOff(PacketPtr frame, SimTime when);

  struct Stats {
    uint64_t wakeups = 0;         // interrupt -> poll-mode transitions
    uint64_t frames_polled = 0;   // frames pulled off hardware rx rings
    uint64_t idle_flushes = 0;    // times the rings ran dry and the aggregator flushed
    uint64_t steered_away = 0;    // frames handed to another core's backlog
    uint64_t backlog_polled = 0;  // frames processed from this core's backlog
    uint64_t backlog_drops = 0;   // backlog overflow
  };
  const Stats& stats() const { return stats_; }
  bool polling() const { return polling_; }

  static constexpr size_t kBacklogLimit = 1024;  // netdev_max_backlog analogue

 private:
  struct NicQueue {
    SimulatedNic* nic;
    size_t queue;
  };

  // A hand-off arriving (`slot` is the head hand-off's) or the poll step.
  void Fire(EventLoop::Slot slot) override;
  void OnInterrupt();
  // Runs poll steps from the running slot on, each next one in place while nothing
  // else is due first, and sends or queues each step's transmit batch; queues the
  // first step that has to wait.
  void RunSteps();
  // One poll step; returns false once the driver went idle, else true with the time of
  // the next step in `next`. The stack leaves the step's transmit batch, if any, in
  // batch_ (RxSink::HoldDriverBatch).
  bool Poll(SimTime& next);
  // Transmits batch_ now, in its slot or in the step slot right after it.
  void SendBatch();
  void AcceptBacklog(PacketPtr frame);
  PacketPtr PopBacklog();
  NicQueue* NextNonEmptyQueue();

  EventLoop& loop_;
  RxSink& stack_;
  CpuClock& cpu_;
  std::vector<NicQueue> queues_;
  SlotQueue<PacketPtr> handoffs_;   // handed to this core, each in its hand-off time's slot
  std::vector<PacketPtr> backlog_;  // accepted, FIFO from backlog_head_
  size_t backlog_head_ = 0;
  Steering* steering_ = nullptr;
  size_t core_ = 0;
  size_t rr_next_ = 0;
  bool polling_ = false;
  // The last step's transmit batch until it is sent; kept across a queued step whose
  // slot directly follows the batch's, which then sends it first.
  RxSink::HeldBatch batch_;
  Stats stats_;
};

}  // namespace tcprx

#endif  // SRC_DRIVER_POLL_DRIVER_H_
