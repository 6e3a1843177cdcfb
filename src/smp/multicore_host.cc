#include "src/smp/multicore_host.h"

#include "src/util/logging.h"
#include "src/wire/raw_view.h"

namespace tcprx {

MulticoreHost::MulticoreHost(const StackConfig& stack_config, const SmpHostConfig& config,
                             EventLoop& loop, NetworkStack::TransmitFn transmit)
    : config_(config),
      topology_(config.num_cores, stack_config.costs.cpu_hz),
      intercore_(config.intercore) {
  shards_.reserve(config.num_cores);
  drivers_.reserve(config.num_cores);
  for (size_t c = 0; c < config.num_cores; ++c) {
    shards_.push_back(std::make_unique<NetworkStack>(stack_config, loop, transmit));
    drivers_.push_back(std::make_unique<PollDriver>(loop, *shards_[c], topology_.core(c)));
  }
  // With one core no shared line can change owner and no frame can be misdirected,
  // so the steering hook could only add host time per frame.
  if (config.num_cores >= 2) {
    for (size_t c = 0; c < config.num_cores; ++c) {
      drivers_[c]->set_steer([this, c](const Packet& frame, Charger& charger) {
        return SteerFrame(c, frame, charger);
      });
    }
  }
}

MulticoreHost::~MulticoreHost() {
  // Shard 0 owns the DMA pool every other shard's in-flight packets came from, so it
  // must be destroyed last: drivers first (backlogged frames), then shards N-1..1,
  // then the pool owner.
  drivers_.clear();
  while (shards_.size() > 1) {
    shards_.pop_back();
  }
}

void MulticoreHost::AttachNic(SimulatedNic* nic) {
  TCPRX_CHECK_MSG(nic->num_rx_queues() == num_cores(),
                  "NIC rx queue count must match the core count");
  for (size_t c = 0; c < num_cores(); ++c) {
    drivers_[c]->AttachNicQueue(nic, c);
  }
}

void MulticoreHost::AddLocalAddress(Ipv4Address local, int nic_id) {
  for (auto& shard : shards_) {
    shard->AddLocalAddress(local, nic_id);
  }
}

void MulticoreHost::AddRoute(Ipv4Address dst, int nic_id) {
  for (auto& shard : shards_) {
    shard->AddRoute(dst, nic_id);
  }
}

void MulticoreHost::Listen(uint16_t port, NetworkStack::AcceptFn on_accept) {
  for (auto& shard : shards_) {
    shard->Listen(port, on_accept);
  }
}

void MulticoreHost::ForEachConnection(const std::function<void(TcpConnection&)>& fn) const {
  for (const auto& shard : shards_) {
    shard->ForEachConnection(fn);
  }
}

void MulticoreHost::ChargeSharedLine(Charger& charger, size_t core,
                                     InterCoreModel::SharedLine line, Routine routine) {
  uint64_t cycles = intercore_.TouchCycles(core, line);
  if (cycles == 0) {
    return;
  }
  // The line's spinlock moved with it: the acquisition is contended, not just
  // lock-prefixed (the base SMP lock model already charged the uncontended RMW).
  cycles += intercore_.costs().lock_contention_cycles;
  charger.Charge(routine, cycles);
}

PollDriver* MulticoreHost::SteerFrame(size_t core, const Packet& frame, Charger& charger) {
  // Shared state every received frame eventually touches, wherever it is processed:
  // the DMA pool's counters (refill on the rx side) and the routing/neighbour tables
  // (the ACK transmit path). Flow-affine traffic still pays transfers here whenever
  // frames of different cores interleave — the irreducible multi-core friction.
  ChargeSharedLine(charger, core, InterCoreModel::SharedLine::kPoolCounters,
                   Routine::kPoolCounters);
  ChargeSharedLine(charger, core, InterCoreModel::SharedLine::kRoutingTable, Routine::kFibTable);

  if (config_.rss.enabled) {
    // Hardware steering already put the frame on its flow's core; no software lookup.
    return nullptr;
  }

  // Software steering (RPS): consult the shared flow director. The fixed-offset peek
  // mirrors what get_rps_cpu does — hash fields only, no full header decode.
  const auto peek = PeekFlowKey(frame.Bytes());
  if (!peek.has_value()) {
    return nullptr;
  }
  ChargeSharedLine(charger, core, InterCoreModel::SharedLine::kFlowDirector,
                   Routine::kRpsFlowTable);
  if (peek->syn) {
    ChargeSharedLine(charger, core, InterCoreModel::SharedLine::kListenerTable,
                     Routine::kListenerTable);
  }
  const size_t owner = director_.OwnerFor(peek->key, core);
  if (owner == core) {
    return nullptr;
  }
  ++misdirected_;
  charger.Charge(Routine::kRpsEnqueue, intercore_.costs().cross_core_enqueue_cycles);
  return drivers_[owner].get();
}

CycleAccount::Counters MulticoreHost::SumCounters() const {
  CycleAccount::Counters sum;
  for (const auto& shard : shards_) {
    const CycleAccount::Counters& c = shard->account().counters();
    sum.net_data_packets += c.net_data_packets;
    sum.host_packets += c.host_packets;
    sum.acks_generated += c.acks_generated;
    sum.ack_templates += c.ack_templates;
    sum.aggregated_segments += c.aggregated_segments;
    sum.payload_bytes += c.payload_bytes;
    sum.drops += c.drops;
  }
  return sum;
}

RoutineCycles MulticoreHost::SumRoutines() const {
  RoutineCycles sum{};
  for (const auto& shard : shards_) {
    const RoutineCycles& cycles = shard->account().routine_cycles();
    for (size_t r = 0; r < kRoutineCount; ++r) {
      sum[r] += cycles[r];
    }
  }
  return sum;
}

CategoryCycles MulticoreHost::SumCategories() const { return FoldCategories(SumRoutines()); }

uint64_t MulticoreHost::backlog_drops() const {
  uint64_t drops = 0;
  for (const auto& driver : drivers_) {
    drops += driver->stats().backlog_drops;
  }
  return drops;
}

}  // namespace tcprx
