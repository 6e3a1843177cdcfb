#include "src/sim/testbed.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>

#include "src/tcp/send_stream.h"
#include "src/util/logging.h"
#include "src/wire/ipv4.h"
#include "src/wire/tcp.h"

namespace tcprx {
namespace {

// NIC i is addressed 10.0.i.x, so the index must fit one octet.
constexpr size_t kMaxNics = size_t{std::numeric_limits<uint8_t>::max()} + 1;

// Each core owns one RSS queue, and every queue needs an entry in the NIC's
// indirection table to receive a flow.
constexpr size_t kMaxCores = kRssIndirectionEntries;

// Client ports kFirstClientPort + c must stay nonzero and distinct in 16 bits.
constexpr size_t kMaxConnectionsPerNic =
    size_t{std::numeric_limits<uint16_t>::max()} - Testbed::kFirstClientPort + 1;

// One segment plus its IP header and the longest TCP header (data offset 15) must fit
// one IP datagram, whose total length is 16 bits; the sender serves a segment that
// long from the pattern table.
constexpr size_t kMaxMss = size_t{std::numeric_limits<uint16_t>::max()} - kIpv4MinHeaderSize -
                           kTcpMinHeaderSize - kTcpMaxOptionBytes;
static_assert(kMaxMss <= kMaxPatternView);

bool MssInRange(uint32_t mss) { return mss >= 1 && mss <= kMaxMss; }

// --link-gbps=N sets every link's rate to N x 10^9 b/s. The bound keeps that product,
// and the link's serialization arithmetic (a frame's bits x 10^9 plus the rate), well
// inside 64 bits.
constexpr uint64_t kBitsPerGigabit = 1'000'000'000;
constexpr uint64_t kMaxLinkGbps = 1'000'000;

bool RateInRange(const LinkConfig& link) {
  return link.bits_per_second >= 1 && link.bits_per_second <= kMaxLinkGbps * kBitsPerGigabit;
}

void AddLinkErrors(const LinkConfig& link, std::vector<std::string>& errors) {
  const std::pair<double, const char*> probabilities[] = {
      {link.drop_probability, "--drop must be between 0 and 1"},
      {link.reorder_probability, "--reorder must be between 0 and 1"},
      {link.duplicate_probability, "--duplicate must be between 0 and 1"},
      {link.corrupt_probability, "--corrupt must be between 0 and 1"}};
  for (const auto& [p, message] : probabilities) {
    if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails both
      errors.emplace_back(message);
    }
  }
  // SimplexLink drops the last burst_drop_length frames of each period.
  if (link.burst_drop_length > link.burst_drop_period) {
    errors.emplace_back("--burst-drop-length must be at most --burst-drop-period");
  }
}

void AddWindowErrors(SimDuration warmup, SimDuration measure,
                     std::vector<std::string>& errors) {
  if (measure.nanos() == 0) {
    errors.emplace_back("--measure-ms must be >= 1");
  }
  if (warmup.nanos() > std::numeric_limits<uint64_t>::max() - measure.nanos()) {
    errors.emplace_back("--warmup-ms plus --measure-ms must fit 64 bits of nanoseconds");
  }
}

// Stops with the first of `errors`, a ConfigErrors result.
void CheckValid(const std::vector<std::string>& errors) {
  TCPRX_CHECK_MSG(errors.empty(), errors.front());
}

const TestbedConfig& ValidConfig(const TestbedConfig& config) {
  CheckValid(ConfigErrors(config));
  return config;
}

}  // namespace

std::vector<std::string> ConfigErrors(const TestbedConfig& config) {
  std::vector<std::string> errors;
  if (config.smp.num_cores < 1 || config.smp.num_cores > kMaxCores) {
    errors.push_back("--cores must be between 1 and " + std::to_string(kMaxCores));
  }
  if (config.stack.aggregation_limit < 1) {
    errors.emplace_back("--limit must be >= 1");
  }
  // Hardware LRO is modelled by the host's aggregator; without one the stack would
  // quietly run as the baseline.
  if (config.stack.hardware_lro && !config.stack.receive_aggregation) {
    errors.emplace_back("--hardware-lro needs --aggregation or --optimized");
  }
  // One message for both directions, which --link-gbps sets together.
  if (!RateInRange(config.link) ||
      (config.client_to_server_link && !RateInRange(*config.client_to_server_link))) {
    errors.push_back("--link-gbps must be between 1 and " + std::to_string(kMaxLinkGbps));
  }
  AddLinkErrors(config.link, errors);
  if (config.client_to_server_link) {
    AddLinkErrors(*config.client_to_server_link, errors);
  }
  if (config.num_nics < 1 || config.num_nics > kMaxNics) {
    errors.push_back("--nics must be between 1 and " + std::to_string(kMaxNics));
  }
  // Testbed gives every NIC one rx queue per core and the host's RSS setting.
  if (config.nic.num_rx_queues != 1) {
    errors.emplace_back("TestbedConfig.nic.num_rx_queues must be 1: set by --cores");
  }
  if (config.nic.rss != RssConfig{}) {
    errors.emplace_back("TestbedConfig.nic.rss must be left default: set by --no-rss");
  }
  return errors;
}

std::vector<std::string> ConfigErrors(const TestbedConfig& config,
                                      const Testbed::StreamOptions& options) {
  std::vector<std::string> errors = ConfigErrors(config);
  if (options.connections_per_nic < 1) {
    errors.emplace_back("--conns-per-nic must be >= 1");
  }
  if (options.connections_per_nic > kMaxConnectionsPerNic) {
    errors.push_back("--conns-per-nic must be at most " +
                     std::to_string(kMaxConnectionsPerNic));
  }
  if (!MssInRange(options.client_mss)) {
    errors.push_back("--mss must be between 1 and " + std::to_string(kMaxMss));
  }
  AddWindowErrors(options.warmup, options.measure, errors);
  return errors;
}

std::vector<std::string> ConfigErrors(const TestbedConfig& config,
                                      const Testbed::LatencyOptions& options) {
  std::vector<std::string> errors = ConfigErrors(config);
  AddWindowErrors(options.warmup, options.measure, errors);
  if (options.message_size < 1) {
    errors.emplace_back("LatencyOptions.message_size must be >= 1");
  }
  return errors;
}

std::vector<std::string> ConfigErrors(const TestbedConfig& config,
                                      const Testbed::TransferOptions& options) {
  std::vector<std::string> errors = ConfigErrors(config);
  if (options.flows < 1 || options.flows > kMaxConnectionsPerNic) {
    errors.push_back("TransferOptions.flows must be between 1 and " +
                     std::to_string(kMaxConnectionsPerNic));
  }
  if (!MssInRange(options.client_mss)) {
    errors.push_back("TransferOptions.client_mss must be between 1 and " +
                     std::to_string(kMaxMss));
  }
  return errors;
}

void SetRttPercentiles(std::vector<double>& samples, LatencyResult& result) {
  if (samples.empty()) {
    return;
  }
  // Each selection leaves the entries before its rank no greater, and those after no
  // less, so the lower rank is selected among the former and the max among the latter.
  const auto p99 = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() * 99 / 100);
  const auto p50 = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), p99, samples.end());
  std::nth_element(samples.begin(), p50, p99);
  result.p50_us = *p50;
  result.p99_us = *p99;
  result.max_us = *std::max_element(p99, samples.end());
}

Testbed::Testbed(const TestbedConfig& config)
    : config_(ValidConfig(config)),
      host_(config_.stack, config_.smp, loop_, [this](int nic_id, std::vector<uint8_t>&& frame) {
        nics_[static_cast<size_t>(nic_id)]->Transmit(std::move(frame));
      }) {
  // One RSS queue per core on every NIC, attached to that core's driver. A one-core
  // host has a single rx queue and builds no hasher.
  NicConfig nic_config = config_.nic;
  nic_config.num_rx_queues = config_.smp.num_cores;
  nic_config.rss = config_.smp.rss;

  nics_.reserve(config_.num_nics);
  remotes_.reserve(config_.num_nics);
  links_.reserve(config_.num_nics * 2);
  for (size_t i = 0; i < config_.num_nics; ++i) {
    auto nic = std::make_unique<SimulatedNic>(static_cast<int>(i), nic_config, loop_,
                                              host_.packet_pool());
    auto remote = std::make_unique<RemoteNode>(
        loop_, [this, i](std::vector<uint8_t>&& frame) {
          links_[i * 2]->Send(std::move(frame));
        });

    // client -> server direction feeds the NIC.
    SimulatedNic* nic_raw = nic.get();
    LinkConfig c2s = config_.client_to_server_link.value_or(config_.link);
    c2s.fault_seed += i * 7919;  // decorrelate per-link fault streams
    links_.push_back(std::make_unique<SimplexLink>(
        c2s, loop_,
        [nic_raw](std::vector<uint8_t>&& frame) { nic_raw->DeliverFromWire(std::move(frame)); }));
    nic->AttachIngress(links_.back().get());
    // server -> client direction feeds the remote node.
    RemoteNode* remote_raw = remote.get();
    links_.push_back(std::make_unique<SimplexLink>(
        config_.link, loop_,
        [remote_raw](std::vector<uint8_t>&& frame) { remote_raw->OnWireFrame(std::move(frame)); }));
    nic->AttachEgress(links_.back().get());

    host_.AttachNic(nic.get());
    host_.AddLocalAddress(server_ip(i), static_cast<int>(i));
    host_.AddRoute(client_ip(i), static_cast<int>(i));

    nics_.push_back(std::move(nic));
    remotes_.push_back(std::move(remote));
  }
}

Testbed::~Testbed() {
  // A pending boxed callback may hold what the host owns, and loop_ outlives host_:
  // release them while the host exists.
  loop_.Clear();
}

void Testbed::RunTo(SimTime edge) {
  loop_.RunUntil(edge);
  for (const auto& nic : nics_) {
    nic->TakeDueFrames();
  }
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
  AddLinkTap([this, &pcap](std::span<const uint8_t> frame) { pcap.Record(loop_.Now(), frame); });
}

void Testbed::AddLinkTap(const SimplexLink::TapFn& tap) {
  for (auto& link : links_) {
    link->add_tap(tap);
  }
}

bool Testbed::PayloadHasReader() const {
  const LinkConfig c2s = config_.client_to_server_link.value_or(config_.link);
  return config_.stack.fill_tcp_checksums || config_.link.corrupt_probability > 0 ||
         c2s.corrupt_probability > 0 ||
         std::any_of(links_.begin(), links_.end(),
                     [](const std::unique_ptr<SimplexLink>& link) { return link->has_taps(); });
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

void Testbed::ListenOnEveryShard(
    uint16_t port, const std::function<void(NetworkStack&, TcpConnection&)>& on_accept) {
  for (size_t c = 0; c < host_.num_cores(); ++c) {
    NetworkStack& shard = host_.stack(c);
    shard.Listen(port, [&shard, on_accept](TcpConnection& conn) { on_accept(shard, conn); });
  }
}

StreamResult Testbed::RunStream(const StreamOptions& options) {
  CheckValid(ConfigErrors(config_, options));
  host_.Listen(options.server_port, [](TcpConnection&) {});

  const SyntheticPayload payload =
      PayloadHasReader() ? SyntheticPayload::kPatternBytes : SyntheticPayload::kLengthOnly;
  // Stagger connection establishment a little so the five links do not run in
  // lockstep.
  uint64_t stagger_ns = 0;
  for (size_t i = 0; i < nics_.size(); ++i) {
    for (size_t c = 0; c < options.connections_per_nic; ++c) {
      TcpConnectionConfig conn_config =
          ClientConnectionConfig(i, static_cast<uint16_t>(kFirstClientPort + c),
                                 options.server_port);
      conn_config.mss = options.client_mss;
      TcpConnection* conn = remotes_[i]->CreateConnection(conn_config);
      loop_.ScheduleAt(SimTime::FromNanos(stagger_ns), [conn, payload] {
        conn->Connect();
        conn->SendSynthetic(UINT64_MAX / 2, payload);
      });
      stagger_ns += 7300;
    }
  }

  const SimTime window_start = options.warmup;
  const SimTime window_end = options.warmup + options.measure;
  RunTo(window_start);

  // Snapshot at the start of the measurement window.
  const CycleAccount::Counters before = host_.SumCounters();
  const RoutineCycles routines_before = host_.SumRoutines();
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

  const HarnessCounters harness_before = thread_harness_counters;
  RunTo(window_end);
  window_harness_counters_ = thread_harness_counters - harness_before;

  const CycleAccount::Counters after = host_.SumCounters();
  const RoutineCycles routines_after = host_.SumRoutines();
  const double seconds = options.measure.ToSecondsF();

  StreamResult result;
  const uint64_t bytes = after.payload_bytes - before.payload_bytes;
  result.throughput_mbps = static_cast<double>(bytes) * 8.0 / seconds / 1e6;

  const uint64_t busy = host_.TotalBusyCycles() - busy_before;
  result.cpu_utilization =
      static_cast<double>(busy) /
      (static_cast<double>(kCosts.cpu_hz) * seconds *
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

  for (size_t r = 0; r < kRoutineCount; ++r) {
    result.routine_cycles[r] = routines_after[r] - routines_before[r];
  }
  const CategoryCycles categories = FoldCategories(result.routine_cycles);
  uint64_t total_cycles = 0;
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    total_cycles += categories[c];
    result.cycles_per_packet[c] =
        result.data_packets > 0
            ? static_cast<double>(categories[c]) / static_cast<double>(result.data_packets)
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
  CheckValid(ConfigErrors(config_, options));
  // Echo server: respond to every delivered byte with an equal-sized reply, written
  // from one buffer per connection.
  ListenOnEveryShard(options.server_port, [](NetworkStack& shard, TcpConnection& conn) {
    shard.SetConnectionDataHandler(
        conn, [&conn, reply = std::vector<uint8_t>()](std::span<const uint8_t> data) mutable {
          reply.assign(data.size(), 0x42);
          conn.Send(reply);
        });
  });

  // Client: one transaction outstanding at all times, every request sent from one
  // buffer; the round-trip times of the measurement window are sampled for the latency
  // distribution.
  TcpConnection* client = remotes_[0]->CreateConnection(
      ClientConnectionConfig(0, 20001, options.server_port));
  const size_t message_size = options.message_size;
  const auto request = std::make_shared<const std::vector<uint8_t>>(message_size, 0x21);
  auto transactions = std::make_shared<uint64_t>(0);
  auto pending_bytes = std::make_shared<size_t>(0);
  auto sent_at = std::make_shared<SimTime>();
  auto measuring = std::make_shared<bool>(false);
  auto samples = std::make_shared<std::vector<double>>();
  EventLoop* loop = &loop_;

  client->set_on_data([client, request, transactions, pending_bytes, sent_at, measuring,
                       samples, loop, message_size](std::span<const uint8_t> data) {
    *pending_bytes += data.size();
    while (*pending_bytes >= message_size) {
      *pending_bytes -= message_size;
      ++*transactions;
      if (*measuring) {
        samples->push_back(static_cast<double>((loop->Now() - *sent_at).nanos()) / 1000.0);
      }
      *sent_at = loop->Now();
      client->Send(*request);
    }
  });
  client->set_on_established([client, request, sent_at, loop] {
    *sent_at = loop->Now();
    client->Send(*request);
  });
  client->Connect();

  RunTo(options.warmup);
  const uint64_t before = *transactions;
  *measuring = true;
  const HarnessCounters harness_before = thread_harness_counters;
  RunTo(options.warmup + options.measure);
  window_harness_counters_ = thread_harness_counters - harness_before;
  *measuring = false;

  LatencyResult result;
  result.transactions = *transactions - before;
  result.transactions_per_sec =
      static_cast<double>(result.transactions) / options.measure.ToSecondsF();
  SetRttPercentiles(*samples, result);
  return result;
}

std::vector<PatternCheck> Testbed::RunTransfer(const TransferOptions& options) {
  CheckValid(ConfigErrors(config_, options));
  // Shared with the data handlers, which outlive this call.
  auto delivered = std::make_shared<std::vector<PatternCheck>>(options.flows);
  ListenOnEveryShard(kTransferPort, [delivered](NetworkStack& shard, TcpConnection& conn) {
    PatternCheck& flow = delivered->at(conn.config().remote_port - kFirstClientPort);
    shard.SetConnectionDataHandler(
        conn, [&flow](std::span<const uint8_t> data) { flow.Feed(data); });
  });
  for (size_t f = 0; f < options.flows; ++f) {
    TcpConnectionConfig conn_config = ClientConnectionConfig(
        0, static_cast<uint16_t>(kFirstClientPort + f), kTransferPort);
    conn_config.mss = options.client_mss;
    TcpConnection* client = remotes_[0]->CreateConnection(conn_config);
    client->Connect();
    client->SendSynthetic(options.bytes_per_flow);
  }
  RunTo(options.deadline);
  return *delivered;
}

}  // namespace tcprx
