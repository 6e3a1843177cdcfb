#include "src/nic/nic.h"

#include "src/util/logging.h"
#include "src/wire/raw_view.h"

namespace tcprx {

SimulatedNic::SimulatedNic(int id, const NicConfig& config, EventLoop& loop, PacketPool& pool)
    : id_(id), config_(config), loop_(loop), pool_(pool) {
  TCPRX_CHECK_MSG(config_.num_rx_queues >= 1, "NicConfig.num_rx_queues must be >= 1");
  const size_t num_queues = config_.num_rx_queues;
  queues_.reserve(num_queues);
  for (size_t q = 0; q < num_queues; ++q) {
    queues_.emplace_back(*this);
  }
  if (num_queues > 1 && config_.rss.enabled) {
    rss_.emplace(num_queues, kRssSecretKey);
  }
}

void SimulatedNic::ReceiveFromWire(std::vector<uint8_t>&& frame, SimTime arrival) {
  PacketPtr p = pool_.AllocateMoved(std::move(frame));

  if (config_.rx_checksum_offload && p->view.has_value()) {
    // The offload engine verifies the TCP checksum in hardware.
    const bool good = VerifyFrameTcpChecksum(p->Bytes(), *p->view);
    p->nic_checksum_verified = good;
    if (good) {
      ++stats_.rx_csum_good;
    } else {
      ++stats_.rx_csum_bad;
    }
  }

  ++stats_.rx_frames;
  link_busy_ = stats_.rx_frames > 1 && (arrival - last_arrival_) < kModerationGap;
  last_arrival_ = arrival;

  const size_t queue = SteerQueue(*p);
  if (!queues_[queue].ring.Push(std::move(p))) {
    ++stats_.rx_dropped;
    return;
  }
  ++queues_[queue].rx_frames;
  MaybeRaiseInterrupt(queue);
}

size_t SimulatedNic::SteerQueue(const Packet& p) {
  if (queues_.size() == 1) {
    return 0;
  }
  if (!rss_) {
    // Per-packet round-robin spray: flows land on arbitrary cores, forcing the
    // software cross-core handoff path.
    rr_next_queue_ = (rr_next_queue_ + 1) % queues_.size();
    return rr_next_queue_;
  }
  // Fixed-offset peek, as RSS hardware does: no option parsing, no allocation.
  const auto peek = PeekFlowKey(p.Bytes());
  if (!peek.has_value()) {
    return 0;  // non-TCP frames funnel to queue 0, as real RSS does
  }
  return rss_->QueueFor(peek->key);
}

void SimulatedNic::MaybeRaiseInterrupt(size_t queue) {
  RxQueue& q = queues_[queue];
  if (q.poll_mode || q.interrupt_pending || !q.on_interrupt) {
    return;
  }
  q.interrupt_pending = true;
  const SimDuration delay = link_busy_ ? config_.moderation_delay : kInterruptDelay;
  loop_.ScheduleAt(loop_.Now() + delay, q);
  UpdatePull();
}

void SimulatedNic::RxQueue::Fire(EventLoop::Slot /*slot*/) {
  // The frames that arrived before the interrupt are on the ring when it is read.
  nic.TakeDueFrames();
  interrupt_pending = false;
  if (!poll_mode && !ring.Empty() && on_interrupt) {
    // The NIC still pulls until the handler returns, so the handler puts the queue in
    // poll mode before it runs anything in place (PollDriver::OnInterrupt does).
    on_interrupt();
  }
  // The queue stays idle unless its handler started a poll.
  nic.UpdatePull();
}

void SimulatedNic::SetQueuePollMode(size_t queue, bool enabled) {
  RxQueue& q = queues_[queue];
  if (enabled) {
    q.poll_mode = true;
    UpdatePull();
    return;
  }
  // The frames due so far arrived while the queue polled.
  TakeDueFrames();
  q.poll_mode = false;
  if (!q.ring.Empty()) {
    // Frames raced in while interrupts were masked.
    MaybeRaiseInterrupt(queue);
  }
  UpdatePull();
}

void SimulatedNic::UpdatePull() {
  if (ingress_ == nullptr) {
    return;
  }
  bool quiet = true;
  for (const RxQueue& q : queues_) {
    quiet = quiet && q.quiet();
  }
  if (quiet == pulling_) {
    return;
  }
  pulling_ = quiet;
  if (quiet) {
    ingress_->StartPull(*this);
  } else {
    ingress_->StopPull();
  }
}

void SimulatedNic::Transmit(std::vector<uint8_t>&& frame) {
  TCPRX_CHECK_MSG(egress_ != nullptr, "NIC has no egress link attached");
  ++stats_.tx_frames;
  egress_->Send(std::move(frame));
}

}  // namespace tcprx
