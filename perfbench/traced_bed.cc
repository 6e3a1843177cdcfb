#include "perfbench/traced_bed.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "perfbench/alloc_counter.h"

namespace perfbench {

using tcprx::CostCategory;
using tcprx::kCostCategoryCount;
using tcprx::SimTime;
using tcprx::TcpConnection;

namespace {

constexpr size_t kBypassCount = static_cast<size_t>(tcprx::AggrBypassReason::kCount);

void AddAggregatorStats(tcprx::Aggregator::Stats& sum, const tcprx::Aggregator::Stats& s) {
  sum.pushed += s.pushed;
  sum.aggregated_segments += s.aggregated_segments;
  sum.host_packets += s.host_packets;
  sum.aggregates_delivered += s.aggregates_delivered;
  sum.passthrough += s.passthrough;
  sum.limit_flushes += s.limit_flushes;
  sum.idle_flushes += s.idle_flushes;
  sum.mismatch_flushes += s.mismatch_flushes;
  sum.raw_delivered += s.raw_delivered;
  sum.raw_dropped += s.raw_dropped;
  for (size_t i = 0; i < kBypassCount; ++i) {
    sum.bypass[i] += s.bypass[i];
  }
}

tcprx::Aggregator::Stats SubAggregatorStats(const tcprx::Aggregator::Stats& a,
                                            const tcprx::Aggregator::Stats& b) {
  tcprx::Aggregator::Stats d;
  d.pushed = a.pushed - b.pushed;
  d.aggregated_segments = a.aggregated_segments - b.aggregated_segments;
  d.host_packets = a.host_packets - b.host_packets;
  d.aggregates_delivered = a.aggregates_delivered - b.aggregates_delivered;
  d.passthrough = a.passthrough - b.passthrough;
  d.limit_flushes = a.limit_flushes - b.limit_flushes;
  d.idle_flushes = a.idle_flushes - b.idle_flushes;
  d.mismatch_flushes = a.mismatch_flushes - b.mismatch_flushes;
  d.raw_delivered = a.raw_delivered - b.raw_delivered;
  d.raw_dropped = a.raw_dropped - b.raw_dropped;
  for (size_t i = 0; i < kBypassCount; ++i) {
    d.bypass[i] = a.bypass[i] - b.bypass[i];
  }
  return d;
}

LayerCounts Sub(const LayerCounts& a, const LayerCounts& b) {
  LayerCounts d;
  d.sim.net_data_packets = a.sim.net_data_packets - b.sim.net_data_packets;
  d.sim.host_packets = a.sim.host_packets - b.sim.host_packets;
  d.sim.acks_generated = a.sim.acks_generated - b.sim.acks_generated;
  d.sim.ack_templates = a.sim.ack_templates - b.sim.ack_templates;
  d.sim.aggregated_segments = a.sim.aggregated_segments - b.sim.aggregated_segments;
  d.sim.payload_bytes = a.sim.payload_bytes - b.sim.payload_bytes;
  d.sim.drops = a.sim.drops - b.sim.drops;
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    d.cycles[c] = a.cycles[c] - b.cycles[c];
  }
  d.busy_cycles = a.busy_cycles - b.busy_cycles;
  d.retransmits = a.retransmits - b.retransmits;
  d.events = a.events - b.events;
  d.link_frames = a.link_frames - b.link_frames;
  d.nic_rx_frames = a.nic_rx_frames - b.nic_rx_frames;
  d.nic_rx_dropped = a.nic_rx_dropped - b.nic_rx_dropped;
  d.nic_csum_bad = a.nic_csum_bad - b.nic_csum_bad;
  d.driver_wakeups = a.driver_wakeups - b.driver_wakeups;
  d.driver_frames_polled = a.driver_frames_polled - b.driver_frames_polled;
  d.driver_idle_flushes = a.driver_idle_flushes - b.driver_idle_flushes;
  d.driver_backlog_drops = a.driver_backlog_drops - b.driver_backlog_drops;
  d.aggr = SubAggregatorStats(a.aggr, b.aggr);
  d.stack_drops = a.stack_drops - b.stack_drops;
  d.ooo_segments = a.ooo_segments - b.ooo_segments;
  d.dup_segments = a.dup_segments - b.dup_segments;
  d.intercore_transfers = a.intercore_transfers - b.intercore_transfers;
  d.misdirected = a.misdirected - b.misdirected;
  d.alloc_calls = a.alloc_calls - b.alloc_calls;
  d.alloc_bytes = a.alloc_bytes - b.alloc_bytes;
  return d;
}

}  // namespace

std::string LayerCounts::Fingerprint() const {
  std::string out;
  char buf[32];
  auto add = [&](uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%llu ", static_cast<unsigned long long>(v));
    out += buf;
  };
  for (uint64_t v : {sim.net_data_packets, sim.host_packets, sim.acks_generated,
                     sim.ack_templates, sim.aggregated_segments, sim.payload_bytes, sim.drops,
                     busy_cycles, retransmits}) {
    add(v);
  }
  for (uint64_t v : cycles) {
    add(v);
  }
  for (uint64_t v : {events, link_frames, nic_rx_frames, nic_rx_dropped, nic_csum_bad,
                     driver_wakeups, driver_frames_polled, driver_idle_flushes,
                     driver_backlog_drops, aggr.pushed, aggr.aggregated_segments,
                     aggr.host_packets, aggr.aggregates_delivered, aggr.passthrough,
                     aggr.limit_flushes, aggr.idle_flushes, aggr.mismatch_flushes,
                     aggr.raw_delivered, aggr.raw_dropped, stack_drops, ooo_segments,
                     dup_segments, intercore_transfers, misdirected, alloc_calls,
                     alloc_bytes}) {
    add(v);
  }
  for (uint64_t v : aggr.bypass) {
    add(v);
  }
  return out;
}

// Forwards the driver's calls into the stack, timing the three that do receive work.
class TracedBed::TracedSink final : public tcprx::RxSink {
 public:
  TracedSink(tcprx::RxSink& inner, SpanTracer& tracer) : inner_(inner), tracer_(tracer) {}

  void ReceiveFrame(tcprx::PacketPtr frame) override {
    ScopedSpan span(tracer_, Layer::kStackRx);
    inner_.ReceiveFrame(std::move(frame));
  }
  void OnReceiveQueueEmpty() override {
    ScopedSpan span(tracer_, Layer::kStackIdle);
    inner_.OnReceiveQueueEmpty();
  }
  void ChargeWakeup() override { inner_.ChargeWakeup(); }
  void BeginDriverBatch() override { inner_.BeginDriverBatch(); }
  void FlushDriverBatch(SimTime done) override {
    ScopedSpan span(tracer_, Layer::kStackFlush);
    inner_.FlushDriverBatch(done);
  }
  uint64_t TakeBatchCycles() override { return inner_.TakeBatchCycles(); }
  tcprx::Charger& charger() override { return inner_.charger(); }

 private:
  tcprx::RxSink& inner_;
  SpanTracer& tracer_;
};

// Same construction order as Testbed::Testbed.
TracedBed::TracedBed(const tcprx::TestbedConfig& config, SpanTracer& tracer)
    : config_(config), tracer_(tracer) {
  const bool multi = config_.smp.num_cores >= 2;
  auto transmit = [this](int nic_id, std::vector<uint8_t> frame) {
    ScopedSpan span(tracer_, Layer::kNicTx);
    nics_[static_cast<size_t>(nic_id)]->Transmit(std::move(frame));
  };

  if (multi) {
    config_.nic.num_rx_queues = config_.smp.num_cores;
    config_.nic.rss = config_.smp.rss;
    host_ = std::make_unique<tcprx::MulticoreHost>(config_.stack, config_.smp, loop_, transmit);
  } else {
    cpu_ = std::make_unique<tcprx::CpuClock>(config_.stack.costs.cpu_hz);
    stack_ = std::make_unique<tcprx::NetworkStack>(config_.stack, loop_, transmit);
    sink_ = std::make_unique<TracedSink>(*stack_, tracer_);
    driver_ = std::make_unique<tcprx::PollDriver>(loop_, *sink_, *cpu_);
  }
  tcprx::PacketPool& dma_pool = multi ? host_->packet_pool() : stack_->packet_pool();

  for (size_t i = 0; i < config_.num_nics; ++i) {
    auto nic = std::make_unique<tcprx::SimulatedNic>(static_cast<int>(i), config_.nic, loop_,
                                                     dma_pool);
    auto remote = std::make_unique<tcprx::RemoteNode>(
        loop_, [this, i](std::vector<uint8_t> frame) {
          ScopedSpan span(tracer_, Layer::kLinkSend);
          links_[i * 2]->Send(std::move(frame));
        });

    tcprx::SimulatedNic* nic_raw = nic.get();
    tcprx::LinkConfig c2s = config_.client_to_server_link.value_or(config_.link);
    c2s.fault_seed += i * 7919;  // as Testbed: decorrelate per-link fault streams
    links_.push_back(std::make_unique<tcprx::SimplexLink>(
        c2s, loop_, [this, nic_raw](std::vector<uint8_t> frame) {
          ScopedSpan span(tracer_, Layer::kNicRx);
          nic_raw->DeliverFromWire(std::move(frame));
        }));
    tcprx::RemoteNode* remote_raw = remote.get();
    links_.push_back(std::make_unique<tcprx::SimplexLink>(
        config_.link, loop_, [this, remote_raw](std::vector<uint8_t> frame) {
          ScopedSpan span(tracer_, Layer::kSender);
          remote_raw->OnWireFrame(std::move(frame));
        }));
    nic->AttachEgress(links_.back().get());

    const tcprx::Ipv4Address server_ip =
        tcprx::Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(i), 1);
    const tcprx::Ipv4Address client_ip =
        tcprx::Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(i), 2);
    if (multi) {
      host_->AttachNic(nic.get());
      host_->AddLocalAddress(server_ip, static_cast<int>(i));
      host_->AddRoute(client_ip, static_cast<int>(i));
    } else {
      driver_->AttachNic(nic.get());
      stack_->AddLocalAddress(server_ip, static_cast<int>(i));
      stack_->AddRoute(client_ip, static_cast<int>(i));
    }

    nics_.push_back(std::move(nic));
    remotes_.push_back(std::move(remote));
  }
}

TracedBed::~TracedBed() = default;

void TracedBed::ForEachConnection(const std::function<void(TcpConnection&)>& fn) {
  if (multicore()) {
    host_->ForEachConnection(fn);
  } else {
    stack_->ForEachConnection(fn);
  }
}

tcprx::TcpConnectionConfig TracedBed::ClientConnectionConfig(size_t nic_index,
                                                             uint16_t client_port,
                                                             uint16_t server_port) const {
  tcprx::TcpConnectionConfig c;
  c.local_ip = tcprx::Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(nic_index), 2);
  c.remote_ip = tcprx::Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(nic_index), 1);
  c.local_port = client_port;
  c.remote_port = server_port;
  c.local_mac = tcprx::MacAddress::FromHostId(static_cast<uint8_t>(nic_index * 2 + 1));
  c.remote_mac = tcprx::MacAddress::FromHostId(static_cast<uint8_t>(nic_index * 2));
  c.fill_tcp_checksum = config_.stack.fill_tcp_checksums;
  c.sack = config_.stack.sack;
  c.delayed_acks = config_.stack.delayed_acks;
  c.initial_seq = static_cast<uint32_t>(1000 + nic_index * 77777 + client_port * 131);
  return c;
}

tcprx::CycleAccount::Counters TracedBed::CountersNow() const {
  return multicore() ? host_->SumCounters() : stack_->account().counters();
}

std::array<uint64_t, kCostCategoryCount> TracedBed::CategoriesNow() const {
  if (multicore()) {
    return host_->SumCategories();
  }
  std::array<uint64_t, kCostCategoryCount> out{};
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    out[c] = stack_->account().Get(static_cast<CostCategory>(c));
  }
  return out;
}

uint64_t TracedBed::BusyCyclesNow() const {
  return multicore() ? host_->TotalBusyCycles() : cpu_->busy_cycles();
}

LayerCounts TracedBed::CountsNow() const {
  LayerCounts n;
  n.sim = CountersNow();
  n.cycles = CategoriesNow();
  n.busy_cycles = BusyCyclesNow();
  for (const auto& remote : remotes_) {
    for (const auto& conn : remote->connections()) {
      n.retransmits += conn->segments_retransmitted();
    }
  }
  for (const auto& link : links_) {
    n.link_frames += link->frames_sent();
  }
  for (const auto& nic : nics_) {
    n.nic_rx_frames += nic->stats().rx_frames;
    n.nic_rx_dropped += nic->stats().rx_dropped;
    n.nic_csum_bad += nic->stats().rx_csum_bad;
  }
  const size_t cores = num_cores();
  for (size_t c = 0; c < cores; ++c) {
    const tcprx::PollDriver& driver = multicore() ? host_->driver(c) : *driver_;
    n.driver_wakeups += driver.stats().wakeups;
    n.driver_frames_polled += driver.stats().frames_polled;
    n.driver_idle_flushes += driver.stats().idle_flushes;
    n.driver_backlog_drops += driver.stats().backlog_drops;

    const tcprx::NetworkStack& shard = multicore() ? host_->stack(c) : *stack_;
    if (shard.aggregator() != nullptr) {
      AddAggregatorStats(n.aggr, shard.aggregator()->stats());
    }
    const tcprx::NetworkStack::Stats& s = shard.stats();
    n.stack_drops += s.frames_dropped_unparseable + s.frames_dropped_ip +
                     s.frames_dropped_bad_checksum + s.frames_dropped_no_connection;
    shard.ForEachConnection([&n](TcpConnection& conn) {
      n.ooo_segments += conn.ooo_segments_received();
      n.dup_segments += conn.duplicate_segments_received();
    });
  }
  if (multicore()) {
    n.intercore_transfers = host_->intercore().transfers();
    n.misdirected = host_->misdirected_packets();
  }
  const AllocCounts allocs = AllocCountsNow();
  n.alloc_calls = allocs.calls;
  n.alloc_bytes = allocs.bytes;
  return n;
}

void TracedBed::RunWindow(SimTime window_start, SimTime window_end) {
  const LayerCounts before = CountsNow();
  tracer_.set_enabled(true);
  SetAllocCounting(true);
  uint64_t events = 0;
  {
    ScopedSpan root(tracer_, Layer::kLoop);
    events = loop_.RunUntil(window_end);
  }
  SetAllocCounting(false);
  tracer_.set_enabled(false);
  counts_ = Sub(CountsNow(), before);
  counts_.events = events;
  core_utilization_ = multicore() ? host_->topology().Utilizations(window_start, window_end)
                                  : std::vector<double>{cpu_->Utilization(window_start,
                                                                          window_end)};
}

// Testbed::RunStream, with the window run through RunWindow.
tcprx::StreamResult TracedBed::RunStream(const tcprx::Testbed::StreamOptions& options) {
  if (multicore()) {
    host_->Listen(options.server_port, [](TcpConnection&) {});
  } else {
    stack_->Listen(options.server_port, [](TcpConnection&) {});
  }

  uint64_t stagger_ns = 0;
  for (size_t i = 0; i < nics_.size(); ++i) {
    for (size_t c = 0; c < options.connections_per_nic; ++c) {
      tcprx::TcpConnectionConfig conn_config =
          ClientConnectionConfig(i, static_cast<uint16_t>(10000 + c), options.server_port);
      conn_config.mss = options.client_mss;
      TcpConnection* conn = remotes_[i]->CreateConnection(conn_config);
      loop_.ScheduleAt(SimTime::FromNanos(stagger_ns), [conn] {
        conn->Connect();
        conn->SendSynthetic(UINT64_MAX / 2);
      });
      stagger_ns += 7300;
    }
  }

  const SimTime window_start = options.warmup;
  const SimTime window_end = options.warmup + options.measure;
  loop_.RunUntil(window_start);

  const tcprx::CycleAccount::Counters before = CountersNow();
  const std::array<uint64_t, kCostCategoryCount> categories_before = CategoriesNow();
  const uint64_t busy_before = BusyCyclesNow();
  uint64_t drops_before = 0;
  for (const auto& nic : nics_) {
    drops_before += nic->stats().rx_dropped;
  }
  uint64_t rtx_before = 0;
  for (const auto& remote : remotes_) {
    for (const auto& conn : remote->connections()) {
      rtx_before += conn->segments_retransmitted();
    }
  }

  RunWindow(window_start, window_end);

  const tcprx::CycleAccount::Counters after = CountersNow();
  const std::array<uint64_t, kCostCategoryCount> categories_after = CategoriesNow();
  const double seconds = options.measure.ToSecondsF();

  tcprx::StreamResult result;
  const uint64_t bytes = after.payload_bytes - before.payload_bytes;
  result.throughput_mbps = static_cast<double>(bytes) * 8.0 / seconds / 1e6;

  const uint64_t busy = BusyCyclesNow() - busy_before;
  result.cpu_utilization =
      static_cast<double>(busy) /
      (static_cast<double>(config_.stack.costs.cpu_hz) * seconds *
       static_cast<double>(num_cores()));
  if (result.cpu_utilization > 1.0) {
    result.cpu_utilization = 1.0;
  }
  result.cpu_scaled_mbps =
      result.cpu_utilization > 0 ? result.throughput_mbps / result.cpu_utilization : 0;

  result.data_packets = after.net_data_packets - before.net_data_packets;
  result.host_packets = after.host_packets - before.host_packets;
  if (result.host_packets > 0) {
    result.avg_aggregation =
        static_cast<double>(result.data_packets) / static_cast<double>(result.host_packets);
  }
  result.acks_on_wire = after.acks_generated - before.acks_generated;
  result.ack_templates = after.ack_templates - before.ack_templates;

  uint64_t total_cycles = 0;
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    const uint64_t cycles = categories_after[c] - categories_before[c];
    total_cycles += cycles;
    result.cycles_per_packet[c] =
        result.data_packets > 0
            ? static_cast<double>(cycles) / static_cast<double>(result.data_packets)
            : 0;
  }
  result.total_cycles_per_packet =
      result.data_packets > 0
          ? static_cast<double>(total_cycles) / static_cast<double>(result.data_packets)
          : 0;

  if (multicore()) {
    result.per_core_utilization = host_->topology().Utilizations(window_start, window_end);
    result.intercore_transfers = host_->intercore().transfers();
    result.misdirected_packets = host_->misdirected_packets();
    result.backlog_drops = host_->backlog_drops();
  } else {
    result.per_core_utilization = {cpu_->Utilization(window_start, window_end)};
  }
  result.load_imbalance = tcprx::LoadImbalance(result.per_core_utilization);

  uint64_t drops_after = 0;
  for (const auto& nic : nics_) {
    drops_after += nic->stats().rx_dropped;
  }
  result.nic_drops = drops_after - drops_before;

  uint64_t rtx_after = 0;
  for (const auto& remote : remotes_) {
    for (const auto& conn : remote->connections()) {
      rtx_after += conn->segments_retransmitted();
    }
  }
  result.retransmits = rtx_after - rtx_before;
  return result;
}

// Testbed::RunLatency, with the window run through RunWindow and each reply checked.
tcprx::LatencyResult TracedBed::RunLatency(const tcprx::Testbed::LatencyOptions& options,
                                           uint64_t& reply_errors) {
  const auto install_echo = [](tcprx::NetworkStack& shard) {
    return [&shard](TcpConnection& conn) {
      shard.SetConnectionDataHandler(conn, [&conn](std::span<const uint8_t> data) {
        std::vector<uint8_t> reply(data.size(), 0x42);
        conn.Send(reply);
      });
    };
  };
  if (multicore()) {
    for (size_t c = 0; c < host_->num_cores(); ++c) {
      host_->stack(c).Listen(options.server_port, install_echo(host_->stack(c)));
    }
  } else {
    stack_->Listen(options.server_port, install_echo(*stack_));
  }

  TcpConnection* client =
      remotes_[0]->CreateConnection(ClientConnectionConfig(0, 20001, options.server_port));
  const size_t message_size = options.message_size;
  auto transactions = std::make_shared<uint64_t>(0);
  auto pending_bytes = std::make_shared<size_t>(0);
  auto sent_at = std::make_shared<SimTime>();
  auto samples = std::make_shared<std::vector<double>>();
  tcprx::EventLoop* loop = &loop_;
  reply_errors = 0;
  uint64_t* errors = &reply_errors;

  client->set_on_data([client, transactions, pending_bytes, sent_at, samples, loop,
                       message_size, errors](std::span<const uint8_t> data) {
    // One request is outstanding, so every delivery must be exactly its echo.
    if (std::any_of(data.begin(), data.end(), [](uint8_t b) { return b != 0x42; })) {
      ++*errors;
    }
    *pending_bytes += data.size();
    while (*pending_bytes >= message_size) {
      *pending_bytes -= message_size;
      ++*transactions;
      samples->push_back(static_cast<double>((loop->Now() - *sent_at).nanos()) / 1000.0);
      const std::vector<uint8_t> request(message_size, 0x21);
      *sent_at = loop->Now();
      client->Send(request);
    }
    if (*pending_bytes != 0) {
      ++*errors;
    }
  });
  client->set_on_established([client, sent_at, loop, message_size] {
    const std::vector<uint8_t> request(message_size, 0x21);
    *sent_at = loop->Now();
    client->Send(request);
  });
  client->Connect();

  loop_.RunUntil(options.warmup);
  const uint64_t before = *transactions;
  samples->clear();
  RunWindow(options.warmup, options.warmup + options.measure);

  tcprx::LatencyResult result;
  result.transactions = *transactions - before;
  result.transactions_per_sec =
      static_cast<double>(result.transactions) / options.measure.ToSecondsF();
  if (!samples->empty()) {
    std::sort(samples->begin(), samples->end());
    result.p50_us = (*samples)[samples->size() / 2];
    result.p99_us = (*samples)[samples->size() * 99 / 100];
    result.max_us = samples->back();
  }
  return result;
}

}  // namespace perfbench
