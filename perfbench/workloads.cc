#include "perfbench/workloads.h"

#include <cstdio>
#include <string>

namespace perfbench {
namespace {

using tcprx::SimDuration;
using tcprx::StackConfig;
using tcprx::SystemType;

// The stack settings tcprx_sim applies before its flags: aggregation limit 20,
// full prefetch, tx checksums offloaded, rx checksum offload on.
tcprx::TestbedConfig BaseConfig(StackConfig stack, uint64_t seed) {
  tcprx::TestbedConfig config;
  config.stack = stack;
  config.stack.aggregation_limit = 20;
  config.stack.hardware_lro = false;
  config.stack.prefetch = tcprx::PrefetchMode::kFull;
  config.stack.fill_tcp_checksums = false;
  config.nic.rx_checksum_offload = true;
  config.link.fault_seed = seed;
  return config;
}

std::string Ms(const char* flag, SimDuration d) {
  return std::string("--") + flag + "=" + std::to_string(d.nanos() / 1'000'000);
}

void Append(std::string& out, const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  out += buf;
}

void Append(std::string& out, const char* fmt, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"stream_up_opt", "stream_smp4_base_lossy",
                                                 "rr_xen_opt"};
  return names;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  const std::string seed_flag = "--seed=" + std::to_string(seed);
  if (name == "stream_up_opt") {
    w.config = BaseConfig(StackConfig::Optimized(SystemType::kNativeUp), seed);
    w.stream_options.warmup = SimDuration::FromMillis(300);
    w.stream_options.measure = SimDuration::FromMillis(300);
    w.reference_args = {"stream", "--system=up", "--optimized", "--json",
                        Ms("warmup-ms", w.stream_options.warmup),
                        Ms("measure-ms", w.stream_options.measure), seed_flag};
  } else if (name == "stream_smp4_base_lossy") {
    w.lossy = true;
    w.config = BaseConfig(StackConfig::Baseline(SystemType::kNativeSmp), seed);
    w.config.smp.num_cores = 4;
    w.config.smp.rss.enabled = true;
    w.config.link.bits_per_second = 10'000'000'000;
    tcprx::LinkConfig data_direction = w.config.link;
    data_direction.drop_probability = 0.001;
    w.config.client_to_server_link = data_direction;
    w.stream_options.connections_per_nic = 4;
    w.stream_options.warmup = SimDuration::FromMillis(100);
    w.stream_options.measure = SimDuration::FromMillis(100);
  } else if (name == "rr_xen_opt") {
    w.stream = false;
    w.config = BaseConfig(StackConfig::Optimized(SystemType::kXenGuest), seed);
    w.config.num_nics = 1;
    w.latency_options.warmup = SimDuration::FromMillis(200);
    w.latency_options.measure = SimDuration::FromMillis(5000);
    w.reference_args = {"latency", "--system=xen", "--optimized", "--json",
                        Ms("warmup-ms", w.latency_options.warmup),
                        Ms("measure-ms", w.latency_options.measure), seed_flag};
  } else {
    return std::nullopt;
  }
  return w;
}

std::string Fingerprint(const SimResult& r) {
  std::string out;
  const tcprx::StreamResult& s = r.stream;
  for (double v : {s.throughput_mbps, s.cpu_utilization, s.cpu_scaled_mbps,
                   s.total_cycles_per_packet, s.avg_aggregation, s.load_imbalance}) {
    Append(out, "%a ", v);
  }
  for (double v : s.cycles_per_packet) {
    Append(out, "%a ", v);
  }
  for (double v : s.per_core_utilization) {
    Append(out, "%a ", v);
  }
  for (uint64_t v : {s.data_packets, s.host_packets, s.acks_on_wire, s.ack_templates,
                     s.nic_drops, s.retransmits, s.intercore_transfers, s.misdirected_packets,
                     s.backlog_drops}) {
    Append(out, "%llu ", v);
  }
  const tcprx::LatencyResult& l = r.latency;
  for (double v : {l.transactions_per_sec, l.p50_us, l.p99_us, l.max_us}) {
    Append(out, "%a ", v);
  }
  Append(out, "%llu", l.transactions);
  return out;
}

std::string ReferenceExpectJson(const Workload& w, const SimResult& r) {
  std::string out = "{";
  if (w.stream) {
    const tcprx::StreamResult& s = r.stream;
    Append(out, "\"throughput_mbps\": %.1f, ", s.throughput_mbps);
    Append(out, "\"cpu_utilization\": %.4f, ", s.cpu_utilization);
    Append(out, "\"cpu_scaled_mbps\": %.1f, ", s.cpu_scaled_mbps);
    Append(out, "\"cycles_per_packet\": %.1f, ", s.total_cycles_per_packet);
    Append(out, "\"avg_aggregation\": %.3f, ", s.avg_aggregation);
    Append(out, "\"data_packets\": %llu, ", s.data_packets);
    Append(out, "\"acks_on_wire\": %llu, ", s.acks_on_wire);
    Append(out, "\"ack_templates\": %llu, ", s.ack_templates);
    Append(out, "\"nic_drops\": %llu, ", s.nic_drops);
    Append(out, "\"retransmits\": %llu", s.retransmits);
  } else {
    Append(out, "\"transactions_per_sec\": %.1f", r.latency.transactions_per_sec);
  }
  return out + "}";
}

}  // namespace perfbench
