// The traced run's testbed: the same host, NICs, links and remotes Testbed builds,
// composed here from the same public constructors so that every layer boundary can
// be wrapped in a host-time span:
//
//   link (client -> server) delivery  -> SimulatedNic::DeliverFromWire   nic.rx
//   stack TransmitFn                  -> SimulatedNic::Transmit          nic.tx
//   remote TransmitFn                 -> SimplexLink::Send               link.send
//   link (server -> client) delivery  -> RemoteNode::OnWireFrame         sender
//   PollDriver -> RxSink -> NetworkStack (single-core host only)         stack.*
//   EventLoop::RunUntil over the window                                  loop (root)
//
// On the multi-core host MulticoreHost wires its per-core drivers and shards
// internally, so their time stays in the root's self time.
//
// RunStream/RunLatency follow Testbed's to the event, so their results must be
// byte-identical to Testbed's for the same config; the benchmark checks that. Spans,
// heap counts and layer counters cover the measurement window only.

#ifndef PERFBENCH_TRACED_BED_H_
#define PERFBENCH_TRACED_BED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/span_tracer.h"
#include "src/sim/testbed.h"

namespace perfbench {

// Window-only counts from the layers' public accessors.
struct LayerCounts {
  // Simulated work, summed over cores: what Testbed's results are computed from.
  tcprx::CycleAccount::Counters sim;
  std::array<uint64_t, tcprx::kCostCategoryCount> cycles{};
  uint64_t busy_cycles = 0;
  uint64_t retransmits = 0;      // segments the remote senders retransmitted

  uint64_t events = 0;           // EventLoop events executed
  uint64_t link_frames = 0;      // frames sent on all links, both directions
  uint64_t nic_rx_frames = 0;    // frames that reached the server NICs
  uint64_t nic_rx_dropped = 0;   // rx ring overflow
  uint64_t nic_csum_bad = 0;
  uint64_t driver_wakeups = 0;
  uint64_t driver_frames_polled = 0;
  uint64_t driver_idle_flushes = 0;
  uint64_t driver_backlog_drops = 0;
  tcprx::Aggregator::Stats aggr;  // summed over shards; zero without aggregation
  uint64_t stack_drops = 0;       // all NetworkStack::Stats drop counters
  uint64_t ooo_segments = 0;      // server connections
  uint64_t dup_segments = 0;
  uint64_t intercore_transfers = 0;
  uint64_t misdirected = 0;
  uint64_t alloc_calls = 0;
  uint64_t alloc_bytes = 0;

  std::string Fingerprint() const;
};

class TracedBed {
 public:
  TracedBed(const tcprx::TestbedConfig& config, SpanTracer& tracer);
  ~TracedBed();

  TracedBed(const TracedBed&) = delete;
  TracedBed& operator=(const TracedBed&) = delete;

  tcprx::StreamResult RunStream(const tcprx::Testbed::StreamOptions& options);
  // `reply_errors` counts echo replies whose size or bytes differ from the request's.
  tcprx::LatencyResult RunLatency(const tcprx::Testbed::LatencyOptions& options,
                                  uint64_t& reply_errors);

  const LayerCounts& counts() const { return counts_; }
  // Simulated utilization of each core over the window.
  const std::vector<double>& core_utilization() const { return core_utilization_; }

  // The accessors the benchmark's output checks share with Testbed.
  tcprx::EventLoop& loop() { return loop_; }
  size_t num_cores() const { return host_ != nullptr ? host_->num_cores() : 1; }
  tcprx::NetworkStack& stack_shard(size_t core) {
    return host_ != nullptr ? host_->stack(core) : *stack_;
  }
  tcprx::RemoteNode& remote(size_t i) { return *remotes_[i]; }
  void ForEachConnection(const std::function<void(tcprx::TcpConnection&)>& fn);

 private:
  class TracedSink;

  bool multicore() const { return host_ != nullptr; }
  tcprx::TcpConnectionConfig ClientConnectionConfig(size_t nic_index, uint16_t client_port,
                                                    uint16_t server_port) const;
  tcprx::CycleAccount::Counters CountersNow() const;
  std::array<uint64_t, tcprx::kCostCategoryCount> CategoriesNow() const;
  uint64_t BusyCyclesNow() const;
  LayerCounts CountsNow() const;
  // Runs the measurement window with spans and heap counting on.
  void RunWindow(tcprx::SimTime window_start, tcprx::SimTime window_end);

  tcprx::TestbedConfig config_;
  SpanTracer& tracer_;
  tcprx::EventLoop loop_;
  std::unique_ptr<tcprx::NetworkStack> stack_;
  std::unique_ptr<tcprx::CpuClock> cpu_;
  std::unique_ptr<TracedSink> sink_;
  std::unique_ptr<tcprx::PollDriver> driver_;
  std::unique_ptr<tcprx::MulticoreHost> host_;
  std::vector<std::unique_ptr<tcprx::SimulatedNic>> nics_;
  std::vector<std::unique_ptr<tcprx::RemoteNode>> remotes_;
  // [i*2] client -> server, [i*2+1] server -> client.
  std::vector<std::unique_ptr<tcprx::SimplexLink>> links_;
  LayerCounts counts_;
  std::vector<double> core_utilization_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_BED_H_
