// Full experiment testbed: one receive server (the system under test) with N NICs,
// N client machines, point-to-point Gigabit links, and the workload drivers used by
// every benchmark in the paper's evaluation:
//
//   * stream workload — the netperf-like receive microbenchmark (sections 2, 5.1-5.3):
//     one or more connections per NIC, clients blast MTU-sized segments, the server
//     receives and discards; reports throughput, CPU utilization and the per-category
//     cycles/packet profile.
//   * request/response workload — the netperf TCP RR benchmark (section 5.4): 1-byte
//     ping-pong, reports transactions per second.

#ifndef SRC_SIM_TESTBED_H_
#define SRC_SIM_TESTBED_H_

#include <array>
#include <optional>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cpu/cpu_clock.h"
#include "src/nic/link.h"
#include "src/nic/nic.h"
#include "src/sim/remote_node.h"
#include "src/sim/pcap.h"
#include "src/sim/trace.h"
#include "src/smp/multicore_host.h"
#include "src/stack/network_stack.h"
#include "src/tcp/send_stream.h"
#include "src/util/event_loop.h"
#include "src/util/harness_counters.h"

namespace tcprx {

struct TestbedConfig {
  StackConfig stack;
  size_t num_nics = 5;
  NicConfig nic;  // num_rx_queues and rss stay default: Testbed sets them from `smp`
  LinkConfig link;  // both directions by default
  // Override for the client->server (data) direction, e.g. to inject loss on the
  // path the aggregator sees without corrupting the ACK path.
  std::optional<LinkConfig> client_to_server_link;
  // The receive host (src/smp/): each NIC gets one rx queue per core, and each core
  // one stack shard + poll driver. num_cores = 1 is the paper's serialized host.
  SmpHostConfig smp;
  bool operator==(const TestbedConfig&) const = default;
};

// Per-category profile plus headline metrics for one measurement window.
struct StreamResult {
  double throughput_mbps = 0;  // delivered application payload
  double cpu_utilization = 0;  // fraction of the window the server CPU(s) were busy
  // Throughput the saturated CPU could sustain if more NICs were added: the paper's
  // "CPU-scaled" number (throughput / utilization).
  double cpu_scaled_mbps = 0;
  std::array<double, kCostCategoryCount> cycles_per_packet{};
  // Cycles each routine charged in the window, summed over all cores: the flat
  // profile. Folded by category and divided by data_packets, it is cycles_per_packet.
  RoutineCycles routine_cycles{};
  double total_cycles_per_packet = 0;
  uint64_t data_packets = 0;
  uint64_t host_packets = 0;
  double avg_aggregation = 1.0;  // network data packets per host packet
  uint64_t acks_on_wire = 0;
  uint64_t ack_templates = 0;
  uint64_t nic_drops = 0;
  uint64_t retransmits = 0;
  // ---- Multi-core metrics (src/smp/) ----------------------------------------------
  // Exact per-core utilization of the measurement window (busy regions clipped to
  // the window edges, never clamped). One entry per core; a single entry in
  // single-core mode.
  std::vector<double> per_core_utilization;
  // max/mean - 1 over per-core utilizations: 0 = perfectly balanced.
  double load_imbalance = 0;
  uint64_t intercore_transfers = 0;   // shared-cache-line migrations between cores
  uint64_t misdirected_packets = 0;   // frames steered in software to another core
  uint64_t backlog_drops = 0;         // cross-core backlog overflow
  bool operator==(const StreamResult&) const = default;
};

struct LatencyResult {
  double transactions_per_sec = 0;
  uint64_t transactions = 0;
  // Round-trip latency distribution over the measurement window, in microseconds.
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

// Sets `result`'s p50, p99 and max from the round-trip samples (left reordered): the
// entries at size/2 and size*99/100 and the last of them sorted, found by selection.
// Leaves them 0 for no samples.
void SetRttPercentiles(std::vector<double>& samples, LatencyResult& result);

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  EventLoop& loop() { return loop_; }
  // Core 0's stack shard: the whole stack on a one-core host.
  NetworkStack& stack() { return host_.stack(0); }
  RemoteNode& remote(size_t i) { return *remotes_[i]; }
  SimulatedNic& nic(size_t i) { return *nics_[i]; }
  size_t num_nics() const { return nics_.size(); }

  // ---- Per-core view ----------------------------------------------------------------
  size_t num_cores() const { return host_.num_cores(); }
  NetworkStack& stack_shard(size_t core) { return host_.stack(core); }
  CpuClock& core(size_t c) { return host_.cpu(c); }

  // Iterates the server's connections across all shards.
  void ForEachConnection(const std::function<void(TcpConnection&)>& fn);

  Ipv4Address server_ip(size_t nic_index) const;
  Ipv4Address client_ip(size_t nic_index) const;
  MacAddress server_mac(size_t nic_index) const;
  MacAddress client_mac(size_t nic_index) const;

  // Convenience: builds a client-side connection config for NIC `i`, client port
  // `client_port`, server port `server_port`.
  TcpConnectionConfig ClientConnectionConfig(size_t nic_index, uint16_t client_port,
                                             uint16_t server_port) const;

  // Attaches a tracer to every link (both directions, labelled per NIC).
  void AttachTracer(PacketTracer& tracer);

  // Captures every frame on every link into a Wireshark-readable .pcap file.
  void AttachPcap(PcapWriter& pcap);

  // Adds `tap` to every link, both directions.
  void AddLinkTap(const SimplexLink::TapFn& tap);

  // Client c of a stream connects from port kFirstClientPort + c.
  static constexpr uint16_t kFirstClientPort = 10000;

  struct StreamOptions {
    size_t connections_per_nic = 1;
    SimDuration warmup = SimDuration::FromMillis(300);
    SimDuration measure = SimDuration::FromMillis(1000);
    uint16_t server_port = 5001;
    // Sender MSS: 1448 models a standard 1500-byte MTU with timestamps; 8948 models
    // a 9000-byte jumbo-frame LAN (the alternative the paper's related-work section
    // discusses).
    uint32_t client_mss = 1448;
    bool operator==(const StreamOptions&) const = default;
  };
  // The senders write their payload bytes only when something on the bed reads them
  // (PayloadHasReader); otherwise data frames carry headers and lengths only.
  StreamResult RunStream(const StreamOptions& options);

  struct LatencyOptions {
    SimDuration warmup = SimDuration::FromMillis(200);
    SimDuration measure = SimDuration::FromMillis(1000);
    size_t message_size = 1;
    uint16_t server_port = 5999;
    bool operator==(const LatencyOptions&) const = default;
  };
  LatencyResult RunLatency(const LatencyOptions& options);

  // A bulk transfer on NIC 0: client f sends `bytes_per_flow` bytes of the synthetic
  // pattern from port kFirstClientPort + f to kTransferPort, and the loop runs until
  // `deadline`. Every shard listens, so any core count works. Returns each flow's
  // delivered stream, by flow; the clients stay readable through remote(0).
  static constexpr uint16_t kTransferPort = 5001;
  struct TransferOptions {
    size_t flows = 1;
    uint64_t bytes_per_flow = 1'000'000;
    uint32_t client_mss = 1448;
    SimTime deadline = SimTime::FromSeconds(20);
  };
  std::vector<PatternCheck> RunTransfer(const TransferOptions& options);

  // The harness's own work (src/util/harness_counters.h) over the measurement window
  // of the last RunStream or RunLatency. Kept out of StreamResult: frame_buffers_made
  // depends on how warm this thread's free lists were, not on the run alone.
  const HarnessCounters& window_harness_counters() const { return window_harness_counters_; }

 private:
  // Whether anything on the bed reads the bytes of a stream's data frames: a link tap
  // (pcap or tracer) records them, a link corrupts them, or a TCP checksum covers them.
  // A stream's server discards what it receives, so nothing else does.
  bool PayloadHasReader() const;

  // Runs the loop to the end of a window and has every NIC take the frames that reached
  // it by then, so the harness counters read next include them.
  void RunTo(SimTime edge);

  // Every shard listens on `port` and hands each connection it accepts to
  // `on_accept` with itself, so what the handler installs charges the owning core.
  void ListenOnEveryShard(
      uint16_t port, const std::function<void(NetworkStack&, TcpConnection&)>& on_accept);

  TestbedConfig config_;
  EventLoop loop_;
  MulticoreHost host_;
  std::vector<std::unique_ptr<SimulatedNic>> nics_;
  std::vector<std::unique_ptr<RemoteNode>> remotes_;
  // Links: [i*2] client->server, [i*2+1] server->client.
  std::vector<std::unique_ptr<SimplexLink>> links_;
  HarnessCounters window_harness_counters_;
};

// Every bound that a Testbed, or a part it builds, imposes on its configuration,
// checked in one place. Returns one line per violation, worded with the tcprx_sim flag
// that sets the field ("--mss must be between 1 and 65455"), or with the field's name
// where no flag sets it, and an empty list, without allocating, when there is none.
// The constructor refuses a config that fails the first overload, and RunStream,
// RunLatency and RunTransfer refuse options that fail the others, each stopping with
// the first message.
std::vector<std::string> ConfigErrors(const TestbedConfig& config);
std::vector<std::string> ConfigErrors(const TestbedConfig& config,
                                      const Testbed::StreamOptions& options);
std::vector<std::string> ConfigErrors(const TestbedConfig& config,
                                      const Testbed::LatencyOptions& options);
std::vector<std::string> ConfigErrors(const TestbedConfig& config,
                                      const Testbed::TransferOptions& options);

}  // namespace tcprx

#endif  // SRC_SIM_TESTBED_H_
