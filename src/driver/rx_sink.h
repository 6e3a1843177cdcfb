// Dependency-inversion boundary between the poll driver and whatever consumes its
// frames.
//
// The driver layer sits *below* the protocol stack in the receive DAG
// (wire -> buffer -> nic/driver -> ip -> tcp -> stack), so it must not include
// src/stack headers. Instead the driver owns this interface and the stack implements
// it — the same shape as a kernel driver delivering into netif_receive_skb() through
// a function pointer rather than linking against the protocol code. Everything the
// poll loop needs from its consumer is here: frame delivery, the work-conserving
// idle-flush hook, wakeup accounting, and the batch bookkeeping that converts charged
// cycles into CPU busy time.
//
// A staged transmit batch normally waits for its CPU completion as an event of its
// own. A sink that overrides HoldDriverBatch writes the batch into the driver's own
// record instead, and the driver sends it in place or rides it on its own next step; a
// sink that does not (a forwarding wrapper that knows only the members before it)
// keeps the queued batch, with the same results.

#ifndef SRC_DRIVER_RX_SINK_H_
#define SRC_DRIVER_RX_SINK_H_

#include <cstdint>

#include "src/buffer/packet.h"
#include "src/cpu/charger.h"
#include "src/util/event_loop.h"
#include "src/util/sim_time.h"

namespace tcprx {

class RxSink {
 public:
  virtual ~RxSink() = default;

  // Processes one raw frame popped from an rx ring; all downstream work happens
  // synchronously and is charged into charger().
  virtual void ReceiveFrame(PacketPtr frame) = 0;

  // Work-conserving hook: called when every rx ring is empty, so partial aggregates
  // never wait while the stack idles (section 3.5 of the paper).
  virtual void OnReceiveQueueEmpty() = 0;

  // Per-interrupt bookkeeping (softirq wakeup; domain switches under Xen).
  virtual void ChargeWakeup() = 0;

  // Driver-context transmit staging: between BeginDriverBatch and FlushDriverBatch
  // outgoing frames are buffered; FlushDriverBatch(done) releases them at the time
  // the CPU actually finishes the batch.
  virtual void BeginDriverBatch() = 0;
  virtual void FlushDriverBatch(SimTime done) = 0;

  // A flushed batch left to the driver: an event target that transmits the batch, and
  // the slot reserved for it at its completion time. No batch: nothing to send, or the
  // sink queued it itself.
  struct HeldBatch {
    EventLoop::Target* batch = nullptr;
    EventLoop::Slot slot;
  };
  // FlushDriverBatch, except that a sink may reserve the batch's slot and leave the
  // batch unqueued in `held`, the driver's own record; the driver then fires it in that
  // slot, in place or queued. The slot is reserved here, before the driver reserves its
  // next step's. The default flushes through FlushDriverBatch, which queues the batch,
  // and holds none.
  virtual void HoldDriverBatch(SimTime done, HeldBatch& held) {
    FlushDriverBatch(done);
    held = {};
  }

  // Cycles charged since the last call; the driver turns this into CPU busy time.
  virtual uint64_t TakeBatchCycles() = 0;

  // The sink's charge sink, exposed so steering hooks can bill the polling core.
  virtual Charger& charger() = 0;
};

}  // namespace tcprx

#endif  // SRC_DRIVER_RX_SINK_H_
