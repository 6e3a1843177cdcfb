// tcprx_sim — command-line experiment runner.
//
// Run any configuration of the paper's testbed without writing code:
//
//   tcprx_sim stream  [--system=up|smp|xen] [--aggregation] [--ack-offload]
//                     [--optimized] [--limit=N] [--hardware-lro]
//                     [--nics=N] [--conns-per-nic=N] [--mss=N]
//                     [--cores=N] [--no-rss]
//                     [--prefetch=none|partial|full] [--no-rx-csum-offload]
//                     [--warmup-ms=N] [--measure-ms=N]
//                     [--drop=P] [--reorder=P] [--duplicate=P] [--corrupt=P]
//                     [--seed=N] [--burst-drop-period=N] [--burst-drop-length=N]
//                     [--reorder-delay-us=N]
//                     [--trace] [--trace-limit=N] [--json]
//   tcprx_sim latency [--system=...] [--optimized] [--measure-ms=N] [--json]
//
// Examples:
//   tcprx_sim stream --system=xen --optimized
//   tcprx_sim stream --aggregation --limit=8 --nics=2 --trace --measure-ms=5
//   tcprx_sim stream --system=smp --optimized --cores=4 --conns-per-nic=80
//   tcprx_sim stream --drop=0.01 --optimized --json

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "src/sim/pcap.h"
#include "src/sim/report.h"
#include "src/sim/testbed.h"
#include "src/sim/trace.h"
#include "src/wire/ipv4.h"
#include "tools/flag_parser.h"

namespace tcprx {
namespace {

int Usage() {
  std::printf(
      "usage: tcprx_sim <stream|latency> [flags]\n"
      "  common: --system=up|smp|xen  --optimized  --aggregation  --ack-offload\n"
      "          --limit=N  --hardware-lro  --prefetch=none|partial|full  --json\n"
      "  stream: --nics=N  --conns-per-nic=N  --mss=N  --warmup-ms=N  --measure-ms=N\n"
      "          --cores=N (multi-core receive host, RSS on by default)  --no-rss\n"
      "          --no-rx-csum-offload  --drop=P  --reorder=P  --duplicate=P  --corrupt=P\n"
      "          --seed=N  --burst-drop-period=N  --burst-drop-length=N  --reorder-delay-us=N\n"
      "          --trace  --trace-limit=N\n");
  return 2;
}

std::optional<SystemType> ParseSystem(const std::string& name) {
  if (name == "up") {
    return SystemType::kNativeUp;
  }
  if (name == "smp") {
    return SystemType::kNativeSmp;
  }
  if (name == "xen") {
    return SystemType::kXenGuest;
  }
  return std::nullopt;
}

std::optional<PrefetchMode> ParsePrefetch(const std::string& name) {
  if (name == "none") {
    return PrefetchMode::kNone;
  }
  if (name == "partial") {
    return PrefetchMode::kAdjacent;
  }
  if (name == "full") {
    return PrefetchMode::kFull;
  }
  return std::nullopt;
}

TestbedConfig BuildConfig(FlagParser& flags) {
  TestbedConfig config;
  const SystemType system = *ParseSystem(flags.GetString("system", "up"));
  if (flags.GetBool("optimized")) {
    config.stack = StackConfig::Optimized(system);
  } else {
    config.stack = StackConfig::Baseline(system);
    config.stack.receive_aggregation = flags.GetBool("aggregation");
    config.stack.ack_offload = flags.GetBool("ack-offload");
  }
  config.stack.aggregation_limit = flags.GetUint("limit", 20);
  config.stack.hardware_lro = flags.GetBool("hardware-lro");
  config.stack.prefetch = *ParsePrefetch(flags.GetString("prefetch", "full"));
  config.stack.fill_tcp_checksums = flags.GetBool("fill-checksums", false);
  config.num_nics = flags.GetUint("nics", 5);
  config.nic.rx_checksum_offload = !flags.GetBool("no-rx-csum-offload");
  config.smp.num_cores = flags.GetUint("cores", 1);
  config.smp.rss.enabled = !flags.GetBool("no-rss");

  LinkConfig lossy = config.link;
  lossy.drop_probability = flags.GetDouble("drop", 0.0);
  lossy.reorder_probability = flags.GetDouble("reorder", 0.0);
  lossy.duplicate_probability = flags.GetDouble("duplicate", 0.0);
  lossy.corrupt_probability = flags.GetDouble("corrupt", 0.0);
  lossy.burst_drop_period = flags.GetUint("burst-drop-period", 0);
  lossy.burst_drop_length = flags.GetUint("burst-drop-length", lossy.burst_drop_period > 0 ? 2 : 0);
  lossy.reorder_delay = SimDuration::FromMicros(flags.GetUint("reorder-delay-us", 40));
  if (flags.Has("seed")) {
    lossy.fault_seed = flags.GetUint("seed", lossy.fault_seed);
  } else {
    flags.GetUint("seed", 0);  // mark used so --seed never trips the unknown-flag check
  }
  if (lossy.drop_probability > 0 || lossy.reorder_probability > 0 ||
      lossy.duplicate_probability > 0 || lossy.corrupt_probability > 0 ||
      lossy.burst_drop_period > 0) {
    config.client_to_server_link = lossy;
  }
  return config;
}

// Echoes the fault schedule (and the seed that drives it) so a JSON result is
// self-describing: the line alone reproduces the run.
void PrintFaultJson(const TestbedConfig& config) {
  const LinkConfig& link =
      config.client_to_server_link ? *config.client_to_server_link : config.link;
  std::printf("  \"seed\": %llu,\n", static_cast<unsigned long long>(link.fault_seed));
  std::printf(
      "  \"faults\": { \"drop\": %.5f, \"duplicate\": %.5f, \"corrupt\": %.5f, "
      "\"reorder\": %.5f, \"reorder_delay_us\": %llu, \"burst_drop_period\": %llu, "
      "\"burst_drop_length\": %llu },\n",
      link.drop_probability, link.duplicate_probability, link.corrupt_probability,
      link.reorder_probability,
      static_cast<unsigned long long>(link.reorder_delay.nanos() / 1000),
      static_cast<unsigned long long>(link.burst_drop_period),
      static_cast<unsigned long long>(link.burst_drop_length));
}

void PrintStreamJson(const StreamResult& r, const TestbedConfig& config) {
  std::printf("{\n");
  PrintFaultJson(config);
  std::printf("  \"throughput_mbps\": %.1f,\n", r.throughput_mbps);
  std::printf("  \"cpu_utilization\": %.4f,\n", r.cpu_utilization);
  std::printf("  \"cpu_scaled_mbps\": %.1f,\n", r.cpu_scaled_mbps);
  std::printf("  \"cycles_per_packet\": %.1f,\n", r.total_cycles_per_packet);
  std::printf("  \"avg_aggregation\": %.3f,\n", r.avg_aggregation);
  std::printf("  \"data_packets\": %llu,\n", static_cast<unsigned long long>(r.data_packets));
  std::printf("  \"acks_on_wire\": %llu,\n", static_cast<unsigned long long>(r.acks_on_wire));
  std::printf("  \"ack_templates\": %llu,\n",
              static_cast<unsigned long long>(r.ack_templates));
  std::printf("  \"nic_drops\": %llu,\n", static_cast<unsigned long long>(r.nic_drops));
  std::printf("  \"retransmits\": %llu,\n", static_cast<unsigned long long>(r.retransmits));
  std::printf("  \"num_cores\": %llu,\n",
              static_cast<unsigned long long>(r.per_core_utilization.size()));
  std::printf("  \"per_core_utilization\": [");
  for (size_t c = 0; c < r.per_core_utilization.size(); ++c) {
    std::printf("%s%.4f", c > 0 ? ", " : "", r.per_core_utilization[c]);
  }
  std::printf("],\n");
  std::printf("  \"load_imbalance\": %.4f,\n", r.load_imbalance);
  std::printf("  \"intercore_transfers\": %llu,\n",
              static_cast<unsigned long long>(r.intercore_transfers));
  std::printf("  \"misdirected_packets\": %llu,\n",
              static_cast<unsigned long long>(r.misdirected_packets));
  std::printf("  \"backlog_drops\": %llu,\n",
              static_cast<unsigned long long>(r.backlog_drops));
  std::printf("  \"breakdown\": {\n");
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    std::printf("    \"%s\": %.1f%s\n", CostCategoryName(static_cast<CostCategory>(c)),
                r.cycles_per_packet[c], c + 1 < kCostCategoryCount ? "," : "");
  }
  std::printf("  }\n}\n");
}

int RunStream(FlagParser& flags) {
  TestbedConfig config = BuildConfig(flags);
  Testbed bed(config);

  PacketTracer tracer(bed.loop(), flags.GetUint("trace-limit", 200));
  const bool trace = flags.GetBool("trace");
  if (trace) {
    bed.AttachTracer(tracer);
  }

  Testbed::StreamOptions options;
  options.connections_per_nic = flags.GetUint("conns-per-nic", 1);
  options.warmup = SimDuration::FromMillis(flags.GetUint("warmup-ms", 300));
  options.measure = SimDuration::FromMillis(flags.GetUint("measure-ms", 1000));
  options.client_mss = static_cast<uint32_t>(flags.GetUint("mss", 1448));
  const bool want_json = flags.GetBool("json");
  const bool want_profile = flags.GetBool("profile");
  const bool want_connections = flags.GetBool("connections");
  const std::string pcap_path = flags.GetString("pcap", "");
  std::unique_ptr<PcapWriter> pcap;
  if (!pcap_path.empty()) {
    pcap = std::make_unique<PcapWriter>(pcap_path);
    if (!pcap->ok()) {
      std::fprintf(stderr, "cannot open %s\n", pcap_path.c_str());
      return 1;
    }
    bed.AttachPcap(*pcap);
  }

  for (const auto& unknown : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return Usage();
  }

  const StreamResult result = bed.RunStream(options);
  if (trace) {
    tracer.Print();
  }
  if (want_connections) {
    std::printf("\nserver connections (ss-style):\n");
    std::printf("%-14s %12s %10s %8s %8s %8s\n", "state", "bytes_rx", "dup_segs",
                "ooo", "paws", "acks");
    bed.ForEachConnection([](TcpConnection& c) {
      std::printf("%-14s %12llu %10llu %8llu %8llu %8llu\n", TcpStateName(c.state()),
                  static_cast<unsigned long long>(c.bytes_received()),
                  static_cast<unsigned long long>(c.duplicate_segments_received()),
                  static_cast<unsigned long long>(c.ooo_segments_received()),
                  static_cast<unsigned long long>(c.paws_rejected()),
                  static_cast<unsigned long long>(c.acks_emitted()));
    });
  }
  if (want_json) {
    PrintStreamJson(result, config);
  } else {
    PrintStreamSummary("stream", result);
    PrintPerCoreSummary(result);
    PrintBreakdownTable("cycles per packet",
                        config.stack.xen() ? XenFigureCategories() : NativeFigureCategories(),
                        {"measured"}, {&result});
    if (want_profile) {
      std::printf("\nflat profile (OProfile-style):\n");
      PrintFlatProfile(bed.stack().account());
    }
  }
  if (pcap) {
    pcap->Close();
    std::fprintf(stderr, "wrote %llu frames to %s\n",
                 static_cast<unsigned long long>(pcap->frames_written()), pcap_path.c_str());
  }
  return 0;
}

int RunLatency(FlagParser& flags) {
  TestbedConfig config = BuildConfig(flags);
  config.num_nics = 1;
  Testbed bed(config);
  Testbed::LatencyOptions options;
  options.warmup = SimDuration::FromMillis(flags.GetUint("warmup-ms", 200));
  options.measure = SimDuration::FromMillis(flags.GetUint("measure-ms", 1000));
  const bool want_json = flags.GetBool("json");

  for (const auto& unknown : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return Usage();
  }

  const LatencyResult result = bed.RunLatency(options);
  if (want_json) {
    std::printf("{\n");
    PrintFaultJson(config);
    std::printf("  \"transactions_per_sec\": %.1f\n}\n", result.transactions_per_sec);
  } else {
    std::printf("latency: %.0f transactions/s  rtt p50 %.1f us  p99 %.1f us  max %.1f us\n",
                result.transactions_per_sec, result.p50_us, result.p99_us, result.max_us);
  }
  return 0;
}

}  // namespace
}  // namespace tcprx

int main(int argc, char** argv) {
  tcprx::FlagParser flags(argc, argv);
  if (flags.positional().size() != 1) {
    return tcprx::Usage();
  }
  // Bad configuration is rejected here with a message, not by a check deep in the host
  // and not by a run that reports a plausible-looking wrong result.
  for (const char* name : {"cores", "limit", "conns-per-nic", "measure-ms"}) {
    if (flags.GetUint(name, 1) < 1) {
      std::fprintf(stderr, "--%s must be >= 1\n", name);
      return 2;
    }
  }
  // One segment plus its IP header and the largest TCP header (data offset 15, 60
  // bytes) must fit one IP datagram.
  constexpr uint64_t kMaxMss = 0xffff - tcprx::kIpv4MinHeaderSize - 60;
  if (const uint64_t mss = flags.GetUint("mss", 1448); mss < 1 || mss > kMaxMss) {
    std::fprintf(stderr, "--mss must be between 1 and %llu\n",
                 static_cast<unsigned long long>(kMaxMss));
    return 2;
  }
  // NIC i is addressed 10.0.i.x, so the index must fit one octet.
  if (const uint64_t nics = flags.GetUint("nics", 5); nics < 1 || nics > 256) {
    std::fprintf(stderr, "--nics must be between 1 and 256\n");
    return 2;
  }
  for (const char* name : {"drop", "reorder", "duplicate", "corrupt"}) {
    const double p = flags.GetDouble(name, 0.0);
    if (!(p >= 0.0 && p <= 1.0)) {
      std::fprintf(stderr, "--%s must be between 0 and 1\n", name);
      return 2;
    }
  }
  if (!tcprx::ParseSystem(flags.GetString("system", "up"))) {
    std::fprintf(stderr, "--system must be up, smp or xen\n");
    return 2;
  }
  if (!tcprx::ParsePrefetch(flags.GetString("prefetch", "full"))) {
    std::fprintf(stderr, "--prefetch must be none, partial or full\n");
    return 2;
  }
  const std::string& command = flags.positional()[0];
  if (command == "stream") {
    return tcprx::RunStream(flags);
  }
  if (command == "latency") {
    return tcprx::RunLatency(flags);
  }
  return tcprx::Usage();
}
