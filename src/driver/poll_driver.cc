#include "src/driver/poll_driver.h"

#include <cstddef>
#include <utility>

namespace tcprx {

void PollDriver::AttachNicQueue(SimulatedNic* nic, size_t queue) {
  queues_.push_back({nic, queue});
  nic->set_on_rx_interrupt(queue, [this] { OnInterrupt(); });
}

void PollDriver::OnInterrupt() {
  if (polling_) {
    return;
  }
  polling_ = true;
  for (const NicQueue& q : queues_) {
    q.nic->SetQueuePollMode(q.queue, true);
  }
  ++stats_.wakeups;
  stack_.ChargeWakeup();
  // Start polling once the CPU is free (interrupt work queues behind whatever the
  // CPU is doing).
  const SimTime start =
      loop_.Now() > cpu_.busy_until() ? loop_.Now() : cpu_.busy_until();
  const EventLoop::Slot first = loop_.Reserve(start);
  if (loop_.RunInPlace(first)) {
    RunSteps();
  } else {
    loop_.QueueAt(first, *this);
  }
}

void PollDriver::Fire(EventLoop::Slot slot) {
  // Seqs are unique and a hand-off wakeup always fires in its queue head's slot, so
  // any other slot is the poll step's.
  if (!handoffs_.empty() && slot == handoffs_.head_slot()) {
    AcceptBacklog(handoffs_.Pop());
    return;
  }
  if (batch_.batch != nullptr) {
    // The batch held for the slot just before this one: nothing ran between them.
    SendBatch();
  }
  RunSteps();
}

void PollDriver::RunSteps() {
  for (;;) {
    SimTime next;
    const bool more = Poll(next);
    // The next step's slot comes right after the batch's, as when both were queued.
    EventLoop::Slot step;
    if (more) {
      step = loop_.Reserve(next);
    }
    if (batch_.batch != nullptr) {
      if (loop_.RunInPlace(batch_.slot)) {
        SendBatch();
      } else if (more && step == EventLoop::Slot{batch_.slot.when, batch_.slot.seq + 1}) {
        loop_.QueueAt(step, *this);  // the step's event sends the batch first
        return;
      } else {
        loop_.QueueAt(batch_.slot, *batch_.batch);
        batch_.batch = nullptr;
      }
    }
    if (!more) {
      return;
    }
    if (!loop_.RunInPlace(step)) {
      loop_.QueueAt(step, *this);
      return;
    }
  }
}

void PollDriver::SendBatch() {
  EventLoop::Target& batch = *batch_.batch;
  batch_.batch = nullptr;
  batch.Fire(batch_.slot);
}

PollDriver::NicQueue* PollDriver::NextNonEmptyQueue() {
  // Round robin from rr_next_ (always below queues_.size()), wrapping by compare.
  const size_t n = queues_.size();
  size_t next = rr_next_;
  for (size_t i = 0; i < n; ++i) {
    NicQueue& q = queues_[next];
    if (++next == n) {
      next = 0;
    }
    if (!q.nic->RxEmpty(q.queue)) {
      rr_next_ = next;
      return &q;
    }
  }
  return nullptr;
}

void PollDriver::HandOff(PacketPtr frame, SimTime when) {
  handoffs_.Push(loop_.Reserve(when), std::move(frame));
}

void PollDriver::AcceptBacklog(PacketPtr frame) {
  if (frame == nullptr) {
    return;
  }
  if (backlog_.size() - backlog_head_ >= kBacklogLimit) {
    ++stats_.backlog_drops;
    return;
  }
  backlog_.push_back(std::move(frame));
  if (!polling_) {
    // The cross-core hand-off wakes the owning core the way an RPS IPI schedules its
    // receive softirq.
    OnInterrupt();
  }
}

bool PollDriver::Poll(SimTime& next) {
  // Frames already steered to this core drain ahead of the hardware rings.
  bool from_backlog = false;
  PacketPtr frame;
  if (backlog_head_ < backlog_.size()) {
    frame = PopBacklog();
    from_backlog = true;
    ++stats_.backlog_polled;
  } else {
    NicQueue* src = NextNonEmptyQueue();
    if (src == nullptr) {
      // The stack is about to go idle: deliver all partial aggregates (work
      // conservation), account the flush work, and re-enable interrupts.
      ++stats_.idle_flushes;
      stack_.BeginDriverBatch();
      stack_.OnReceiveQueueEmpty();
      const uint64_t cycles = stack_.TakeBatchCycles();
      const SimTime done = cycles > 0 ? cpu_.Run(loop_.Now(), cycles) : loop_.Now();
      stack_.HoldDriverBatch(done, batch_);
      polling_ = false;
      for (const NicQueue& q : queues_) {
        q.nic->SetQueuePollMode(q.queue, false);
      }
      return false;
    }
    frame = src->nic->PopRx(src->queue);
    ++stats_.frames_polled;
  }

  stack_.BeginDriverBatch();
  if (steer_ && !from_backlog) {
    PollDriver* owner = steer_(*frame, stack_.charger());
    if (owner != nullptr && owner != this) {
      // Misdirected flow: this core only pays the steering cost (already charged by
      // the hook), then hands the frame to the owning core once that work retires.
      ++stats_.steered_away;
      const uint64_t cycles = stack_.TakeBatchCycles();
      const SimTime done = cycles > 0 ? cpu_.Run(loop_.Now(), cycles) : loop_.Now();
      stack_.HoldDriverBatch(done, batch_);
      owner->HandOff(std::move(frame), done);
      next = done;
      return true;
    }
  }
  stack_.ReceiveFrame(std::move(frame));
  const uint64_t cycles = stack_.TakeBatchCycles();
  next = cpu_.Run(loop_.Now(), cycles);
  stack_.HoldDriverBatch(next, batch_);
  return true;
}

PacketPtr PollDriver::PopBacklog() {
  PacketPtr frame = std::move(backlog_[backlog_head_]);
  if (++backlog_head_ == backlog_.size()) {
    backlog_.clear();
    backlog_head_ = 0;
  } else if (constexpr size_t kCompactAfter = 32;
             backlog_head_ >= kCompactAfter && backlog_head_ * 2 >= backlog_.size()) {
    backlog_.erase(backlog_.begin(), backlog_.begin() + static_cast<std::ptrdiff_t>(backlog_head_));
    backlog_head_ = 0;
  }
  return frame;
}

}  // namespace tcprx
