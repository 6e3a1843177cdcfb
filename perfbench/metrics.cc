#include "perfbench/metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

using tcprx::AggrBypassReason;
using tcprx::CostCategory;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Ratio(uint64_t num, uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

const char* BypassName(AggrBypassReason r) {
  switch (r) {
    case AggrBypassReason::kNotTcp:
      return "not_tcp";
    case AggrBypassReason::kIpOptions:
      return "ip_options";
    case AggrBypassReason::kIpFragment:
      return "ip_fragment";
    case AggrBypassReason::kBadIpChecksum:
      return "bad_ip_csum";
    case AggrBypassReason::kNoNicChecksum:
      return "no_nic_csum";
    case AggrBypassReason::kZeroPayload:
      return "zero_payload";
    case AggrBypassReason::kSpecialFlags:
      return "special_flags";
    case AggrBypassReason::kBadOptions:
      return "bad_options";
    case AggrBypassReason::kCount:
      break;
  }
  return "?";
}

// The repetition that took the least host CPU time.
template <typename Rep>
const Rep& Fastest(const std::vector<Rep>& reps) {
  return *std::min_element(reps.begin(), reps.end(), [](const Rep& a, const Rep& b) {
    return a.run_cpu_s < b.run_cpu_s;
  });
}

// Host CPU time of one repetition as the sum, over its slices of simulated time, of
// the fastest repetition's time for that slice. On a shared host the CPU slows for
// seconds at a time as other tenants come and go; a slice needs only a quiet moment
// in one repetition, where the fastest whole repetition needs a quiet stretch.
double SumOfFastestSlices(const std::vector<UntracedRep>& reps) {
  double total = 0;
  for (size_t k = 0; k < kRunSlices; ++k) {
    double fastest = reps.front().slice_cpu_s[k];
    for (const UntracedRep& rep : reps) {
      fastest = std::min(fastest, rep.slice_cpu_s[k]);
    }
    total += fastest;
  }
  return total;
}

}  // namespace

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> EndToEndMetrics(const Workload& w, const std::vector<UntracedRep>& reps,
                                    const std::vector<double>& setup_samples) {
  const UntracedRep& first = reps.front();
  double goodput = 0;
  double cpu_scaled = 0;
  if (w.stream) {
    goodput = first.sim.stream.throughput_mbps;
    cpu_scaled = first.sim.stream.cpu_scaled_mbps;
  } else {
    // Request payload the server received per second.
    goodput = first.sim.latency.transactions_per_sec *
              static_cast<double>(w.latency_options.message_size) * 8.0 / 1e6;
    cpu_scaled = Ratio(goodput, first.cpu_utilization);
  }
  return {
      {"setup_s", *std::min_element(setup_samples.begin(), setup_samples.end()), "s"},
      {"run_cpu_s", SumOfFastestSlices(reps), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"goodput_mbps", goodput, "Mb/s"},
      {"cpu_scaled_mbps", cpu_scaled, "Mb/s"},
  };
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const std::vector<TracedRep>& traced,
                                    const std::vector<UntracedRep>& untraced) {
  // Counts repeat exactly across repetitions; host times come from the fastest one.
  const TracedRep& rep = traced.front();
  const TracedRep& fast = Fastest(traced);
  const LayerCounts& n = rep.counts;
  const uint64_t pkts = n.sim.net_data_packets;
  const size_t cores = rep.core_utilization.size();
  const double window_s = (w.window_end() - w.window_start()).ToSecondsF();
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };

  // util: the event loop.
  add("loop.events_per_frame", Ratio(n.events, n.link_frames), "count");
  add("loop.self_ns_per_frame",
      Ratio(static_cast<double>(fast.spans[static_cast<size_t>(Layer::kLoop)].self_ns),
            static_cast<double>(n.link_frames)),
      "ns");

  // nic: links, NICs.
  add("link.frames_per_data_pkt", Ratio(n.link_frames, pkts), "count");
  add("nic.rx_dropped", static_cast<double>(n.nic_rx_dropped), "count");
  add("nic.csum_bad", static_cast<double>(n.nic_csum_bad), "count");

  // Host self time per call of each traced boundary, and each layer's share of the
  // root span.
  static constexpr struct {
    Layer layer;
    const char* per_call;
  } kPerCall[] = {
      {Layer::kNicRx, "nic.rx_ns_per_frame"},     {Layer::kNicTx, "nic.tx_ns_per_frame"},
      {Layer::kLinkSend, "link.send_ns_per_frame"}, {Layer::kSender, "sender.ns_per_frame"},
      {Layer::kStackRx, "stack.rx_ns_per_frame"},   {Layer::kStackIdle, "stack.idle_ns_per_call"},
      {Layer::kStackFlush, "stack.flush_ns_per_call"},
  };
  for (const auto& entry : kPerCall) {
    const size_t l = static_cast<size_t>(entry.layer);
    add(entry.per_call,
        Ratio(static_cast<double>(fast.spans[l].self_ns),
              static_cast<double>(fast.spans[l].calls)),
        "ns");
  }
  for (size_t l = 0; l < kLayerCount; ++l) {
    add(std::string("share.") + LayerName(static_cast<Layer>(l)),
        Ratio(static_cast<double>(fast.spans[l].self_ns), static_cast<double>(fast.root_ns)),
        "ratio");
  }

  // driver.
  add("driver.frames_per_wakeup", Ratio(n.driver_frames_polled, n.driver_wakeups), "count");
  add("driver.idle_flushes_per_kframe",
      1000.0 * Ratio(n.driver_idle_flushes, n.driver_frames_polled), "count");
  add("driver.backlog_drops", static_cast<double>(n.driver_backlog_drops), "count");

  // core: aggregator and template ACKs.
  add("aggr.factor", n.sim.host_packets > 0 ? Ratio(pkts, n.sim.host_packets) : 1.0, "count");
  add("aggr.limit_flush_frac", Ratio(n.aggr.limit_flushes, n.aggr.host_packets), "ratio");
  add("aggr.idle_flush_frac", Ratio(n.aggr.idle_flushes, n.aggr.host_packets), "ratio");
  add("aggr.mismatch_flush_frac", Ratio(n.aggr.mismatch_flushes, n.aggr.host_packets),
      "ratio");
  add("aggr.passthrough_frac", Ratio(n.aggr.passthrough, n.aggr.pushed), "ratio");
  for (size_t r = 0; r < static_cast<size_t>(AggrBypassReason::kCount); ++r) {
    add(std::string("aggr.bypass.") + BypassName(static_cast<AggrBypassReason>(r)),
        static_cast<double>(n.aggr.bypass[r]), "count");
  }
  add("ack.wire_per_pkt", Ratio(n.sim.acks_generated, pkts), "count");
  add("ack.templates_per_pkt", Ratio(n.sim.ack_templates, pkts), "count");

  // stack, ip, tcp.
  add("stack.drops", static_cast<double>(n.stack_drops), "count");
  add("tcp.retransmits_per_kpkt", 1000.0 * Ratio(n.retransmits, pkts), "count");
  add("tcp.ooo_segments", static_cast<double>(n.ooo_segments), "count");
  add("tcp.dup_segments", static_cast<double>(n.dup_segments), "count");

  // buffer: heap traffic of the whole simulator.
  add("alloc.per_frame", Ratio(n.alloc_calls, n.link_frames), "count");
  add("alloc.bytes_per_frame", Ratio(n.alloc_bytes, n.link_frames), "B");

  // cpu: simulated cycles per network data packet, and utilization.
  uint64_t total_cycles = 0;
  for (size_t c = 0; c < tcprx::kCostCategoryCount; ++c) {
    total_cycles += n.cycles[c];
    add(std::string("sim.cyc.") + tcprx::CostCategoryName(static_cast<CostCategory>(c)),
        Ratio(n.cycles[c], pkts), "cycles");
  }
  add("sim.cyc.total", Ratio(total_cycles, pkts), "cycles");
  const double hz = static_cast<double>(w.config.stack.costs.cpu_hz);
  add("sim.cpu_util",
      std::min(1.0, Ratio(static_cast<double>(n.busy_cycles),
                          hz * window_s * static_cast<double>(cores))),
      "ratio");
  add("sim.max_core_util",
      cores > 0 ? *std::max_element(rep.core_utilization.begin(), rep.core_utilization.end())
                : 0.0,
      "ratio");

  // smp.
  add("smp.intercore_per_pkt", Ratio(n.intercore_transfers, pkts), "count");
  add("smp.load_imbalance", tcprx::LoadImbalance(rep.core_utilization), "ratio");
  add("smp.misdirected", static_cast<double>(n.misdirected), "count");

  // Request/response latency (zero on the streams).
  const tcprx::LatencyResult& l = rep.sim.latency;
  add("rr.tps", l.transactions_per_sec, "1/s");
  add("rr.rtt_p50_us", l.p50_us, "us");
  add("rr.rtt_p99_us", l.p99_us, "us");
  add("rr.rtt_max_us", l.max_us, "us");
  add("rr.rtt_samples", static_cast<double>(l.transactions), "count");

  // Frames lost inside the host: ring, backlog and stack drops.
  add("host.drop_frac",
      Ratio(n.nic_rx_dropped + n.driver_backlog_drops + n.stack_drops, n.nic_rx_frames),
      "ratio");

  // Tracing cost: traced minus untraced host CPU for the same run.
  add("trace.run_cpu_s", fast.run_cpu_s, "s");
  add("trace.overhead_s", fast.run_cpu_s - Fastest(untraced).run_cpu_s, "s");
  return m;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
