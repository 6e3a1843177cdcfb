#include "src/sim/testbed.h"

#include <algorithm>
#include <string>

namespace tcprx {

Testbed::Testbed(const TestbedConfig& config)
    : config_(config),
      host_(config_.stack, config_.smp, loop_, [this](int nic_id, std::vector<uint8_t> frame) {
        nics_[static_cast<size_t>(nic_id)]->Transmit(std::move(frame));
      }) {
  // One RSS queue per core on every NIC, attached to that core's driver. A one-core
  // host has a single rx queue, which never consults the hasher.
  config_.nic.num_rx_queues = config_.smp.num_cores;
  config_.nic.rss = config_.smp.rss;

  nics_.reserve(config_.num_nics);
  remotes_.reserve(config_.num_nics);
  links_.reserve(config_.num_nics * 2);
  for (size_t i = 0; i < config_.num_nics; ++i) {
    auto nic = std::make_unique<SimulatedNic>(static_cast<int>(i), config_.nic, loop_,
                                              host_.packet_pool());
    auto remote = std::make_unique<RemoteNode>(
        loop_, [this, i](std::vector<uint8_t> frame) {
          links_[i * 2]->Send(std::move(frame));
        });

    // client -> server direction feeds the NIC.
    SimulatedNic* nic_raw = nic.get();
    LinkConfig c2s = config_.client_to_server_link.value_or(config_.link);
    c2s.fault_seed += i * 7919;  // decorrelate per-link fault streams
    links_.push_back(std::make_unique<SimplexLink>(
        c2s, loop_,
        [nic_raw](std::vector<uint8_t> frame) { nic_raw->DeliverFromWire(std::move(frame)); }));
    // server -> client direction feeds the remote node.
    RemoteNode* remote_raw = remote.get();
    links_.push_back(std::make_unique<SimplexLink>(
        config_.link, loop_,
        [remote_raw](std::vector<uint8_t> frame) { remote_raw->OnWireFrame(std::move(frame)); }));
    nic->AttachEgress(links_.back().get());

    host_.AttachNic(nic.get());
    host_.AddLocalAddress(server_ip(i), static_cast<int>(i));
    host_.AddRoute(client_ip(i), static_cast<int>(i));

    nics_.push_back(std::move(nic));
    remotes_.push_back(std::move(remote));
  }
}

Testbed::~Testbed() {
  // Pending events may hold frames from the host's pool (a cross-core hand-off, say),
  // and loop_ outlives host_: release them while the pool still exists.
  loop_.Clear();
}

void Testbed::ForEachConnection(const std::function<void(TcpConnection&)>& fn) {
  host_.ForEachConnection(fn);
}

void Testbed::AttachTracer(PacketTracer& tracer) {
  for (size_t i = 0; i < nics_.size(); ++i) {
    const std::string to_server = "nic" + std::to_string(i) + " <-";
    const std::string to_client = "nic" + std::to_string(i) + " ->";
    links_[i * 2]->add_tap([&tracer, to_server](std::span<const uint8_t> frame) {
      tracer.Record(to_server, frame);
    });
    links_[i * 2 + 1]->add_tap([&tracer, to_client](std::span<const uint8_t> frame) {
      tracer.Record(to_client, frame);
    });
  }
}

void Testbed::AttachPcap(PcapWriter& pcap) {
  for (auto& link : links_) {
    link->add_tap([this, &pcap](std::span<const uint8_t> frame) {
      pcap.Record(loop_.Now(), frame);
    });
  }
}

Ipv4Address Testbed::server_ip(size_t nic_index) const {
  return Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(nic_index), 1);
}

Ipv4Address Testbed::client_ip(size_t nic_index) const {
  return Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(nic_index), 2);
}

MacAddress Testbed::server_mac(size_t nic_index) const {
  return MacAddress::FromHostId(static_cast<uint8_t>(nic_index * 2));
}

MacAddress Testbed::client_mac(size_t nic_index) const {
  return MacAddress::FromHostId(static_cast<uint8_t>(nic_index * 2 + 1));
}

TcpConnectionConfig Testbed::ClientConnectionConfig(size_t nic_index, uint16_t client_port,
                                                    uint16_t server_port) const {
  TcpConnectionConfig c;
  c.local_ip = client_ip(nic_index);
  c.remote_ip = server_ip(nic_index);
  c.local_port = client_port;
  c.remote_port = server_port;
  c.local_mac = client_mac(nic_index);
  c.remote_mac = server_mac(nic_index);
  c.fill_tcp_checksum = config_.stack.fill_tcp_checksums;
  c.sack = config_.stack.sack;
  c.delayed_acks = config_.stack.delayed_acks;
  c.initial_seq = static_cast<uint32_t>(1000 + nic_index * 77777 + client_port * 131);
  return c;
}

StreamResult Testbed::RunStream(const StreamOptions& options) {
  host_.Listen(options.server_port, [](TcpConnection&) {});

  // Stagger connection establishment a little so the five links do not run in
  // lockstep.
  uint64_t stagger_ns = 0;
  for (size_t i = 0; i < nics_.size(); ++i) {
    for (size_t c = 0; c < options.connections_per_nic; ++c) {
      TcpConnectionConfig conn_config =
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

  // Snapshot at the start of the measurement window.
  const CycleAccount::Counters before = host_.SumCounters();
  const std::array<uint64_t, kCostCategoryCount> categories_before = host_.SumCategories();
  const uint64_t busy_before = host_.TotalBusyCycles();
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

  loop_.RunUntil(window_end);

  const CycleAccount::Counters after = host_.SumCounters();
  const std::array<uint64_t, kCostCategoryCount> categories_after = host_.SumCategories();
  const double seconds = options.measure.ToSecondsF();

  StreamResult result;
  const uint64_t bytes = after.payload_bytes - before.payload_bytes;
  result.throughput_mbps = static_cast<double>(bytes) * 8.0 / seconds / 1e6;

  const uint64_t busy = host_.TotalBusyCycles() - busy_before;
  result.cpu_utilization =
      static_cast<double>(busy) /
      (static_cast<double>(config_.stack.costs.cpu_hz) * seconds *
       static_cast<double>(num_cores()));
  if (result.cpu_utilization > 1.0) {
    result.cpu_utilization = 1.0;
  }
  result.cpu_scaled_mbps = result.cpu_utilization > 0
                               ? result.throughput_mbps / result.cpu_utilization
                               : 0;

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

  // Per-core utilization of the exact measurement window (busy regions clipped to
  // the window; work charged before the window but still executing inside it counts
  // where it actually ran).
  result.per_core_utilization = host_.topology().Utilizations(window_start, window_end);
  result.intercore_transfers = host_.intercore().transfers();
  result.misdirected_packets = host_.misdirected_packets();
  result.backlog_drops = host_.backlog_drops();
  result.load_imbalance = LoadImbalance(result.per_core_utilization);

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

LatencyResult Testbed::RunLatency(const LatencyOptions& options) {
  // Echo server: respond to every delivered byte with an equal-sized reply. Each
  // shard installs the handler through itself so the charge lands on the owning
  // core's account.
  const auto install_echo = [](NetworkStack& shard) {
    return [&shard](TcpConnection& conn) {
      shard.SetConnectionDataHandler(conn, [&conn](std::span<const uint8_t> data) {
        std::vector<uint8_t> reply(data.size(), 0x42);
        conn.Send(reply);
      });
    };
  };
  for (size_t c = 0; c < host_.num_cores(); ++c) {
    host_.stack(c).Listen(options.server_port, install_echo(host_.stack(c)));
  }

  // Client: one transaction outstanding at all times; per-transaction round-trip
  // times are sampled for the latency distribution.
  TcpConnection* client = remotes_[0]->CreateConnection(
      ClientConnectionConfig(0, 20001, options.server_port));
  const size_t message_size = options.message_size;
  auto transactions = std::make_shared<uint64_t>(0);
  auto pending_bytes = std::make_shared<size_t>(0);
  auto sent_at = std::make_shared<SimTime>();
  auto samples = std::make_shared<std::vector<double>>();
  EventLoop* loop = &loop_;

  client->set_on_data([client, transactions, pending_bytes, sent_at, samples, loop,
                       message_size](std::span<const uint8_t> data) {
    *pending_bytes += data.size();
    while (*pending_bytes >= message_size) {
      *pending_bytes -= message_size;
      ++*transactions;
      samples->push_back(
          static_cast<double>((loop->Now() - *sent_at).nanos()) / 1000.0);
      const std::vector<uint8_t> request(message_size, 0x21);
      *sent_at = loop->Now();
      client->Send(request);
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
  loop_.RunUntil(options.warmup + options.measure);

  LatencyResult result;
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

}  // namespace tcprx
