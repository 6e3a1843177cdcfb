#include "src/nic/nic.h"

#include "src/util/byte_order.h"
#include "src/util/logging.h"
#include "src/wire/raw_view.h"

namespace tcprx {

SimulatedNic::SimulatedNic(int id, const NicConfig& config, EventLoop& loop, PacketPool& pool)
    : id_(id), config_(config), loop_(loop), pool_(pool),
      rss_(config.rss, config.num_rx_queues == 0 ? 1 : config.num_rx_queues) {
  const size_t num_queues = config_.num_rx_queues == 0 ? 1 : config_.num_rx_queues;
  queues_.reserve(num_queues);
  for (size_t q = 0; q < num_queues; ++q) {
    queues_.emplace_back(config_.rx_ring_entries);
  }
}

void SimulatedNic::DeliverFromWire(std::vector<uint8_t> frame) {
  PacketPtr p = pool_.AllocateMoved(std::move(frame));

  if (config_.rx_checksum_offload && p->view.has_value()) {
    // The offload engine verifies the TCP checksum in hardware. A zero checksum field
    // models a sender whose own NIC filled it on the wire (tx offload); the simulation
    // skips materializing it and trusts the frame.
    const TcpFrameView& view = *p->view;
    const uint16_t wire_csum = LoadBe16(p->Bytes().data() + view.tcp_offset + 16);
    bool good = true;
    if (wire_csum != 0) {
      const size_t seg_len = view.ip.total_length - view.ip.HeaderSize();
      good = VerifyTcpChecksum(view.ip.src, view.ip.dst,
                               p->Bytes().subspan(view.tcp_offset, seg_len));
    }
    p->nic_checksum_verified = good;
    if (good) {
      ++stats_.rx_csum_good;
    } else {
      ++stats_.rx_csum_bad;
    }
  }

  ++stats_.rx_frames;
  const SimTime now = loop_.Now();
  link_busy_ = stats_.rx_frames > 1 && (now - last_arrival_) < config_.moderation_gap;
  last_arrival_ = now;

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
  if (!config_.rss.enabled) {
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
  return rss_.QueueFor(peek->key);
}

void SimulatedNic::MaybeRaiseInterrupt(size_t queue) {
  RxQueue& q = queues_[queue];
  if (q.poll_mode || q.interrupt_pending || !q.on_interrupt) {
    return;
  }
  q.interrupt_pending = true;
  const SimDuration delay =
      link_busy_ ? config_.moderation_delay : config_.interrupt_delay;
  loop_.ScheduleAfter(delay, [this, queue] {
    RxQueue& rq = queues_[queue];
    rq.interrupt_pending = false;
    if (!rq.poll_mode && !rq.ring.Empty() && rq.on_interrupt) {
      rq.on_interrupt();
    }
  });
}

void SimulatedNic::SetQueuePollMode(size_t queue, bool enabled) {
  RxQueue& q = queues_[queue];
  q.poll_mode = enabled;
  if (!enabled && !q.ring.Empty()) {
    // Frames raced in while interrupts were masked.
    MaybeRaiseInterrupt(queue);
  }
}

void SimulatedNic::Transmit(std::vector<uint8_t> frame) {
  TCPRX_CHECK_MSG(egress_ != nullptr, "NIC has no egress link attached");
  ++stats_.tx_frames;
  egress_->Send(std::move(frame));
}

}  // namespace tcprx
