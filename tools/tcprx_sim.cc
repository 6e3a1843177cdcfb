// tcprx_sim — command-line experiment runner.
//
// Run any configuration of the paper's testbed without writing code:
//
//   tcprx_sim stream  [--system=up|smp|xen] [--aggregation] [--ack-offload]
//                     [--optimized] [--limit=N] [--hardware-lro]
//                     [--nics=N] [--conns-per-nic=N] [--mss=N]
//                     [--cores=N] [--no-rss] [--link-gbps=N]
//                     [--prefetch=none|partial|full] [--no-rx-csum-offload]
//                     [--warmup-ms=N] [--measure-ms=N]
//                     [--drop=P] [--reorder=P] [--duplicate=P] [--corrupt=P]
//                     [--seed=N] [--burst-drop-period=N] [--burst-drop-length=N]
//                     [--reorder-delay-us=N]
//                     [--fill-checksums] [--pcap=FILE]
//                     [--trace] [--trace-limit=N] [--connections] [--profile]
//                     [--harness-stats] [--json]
//   tcprx_sim latency [--system=...] [--optimized] [--measure-ms=N] [--json]
//
// --link-gbps=N sets the rate of every link, both directions, to N Gb/s (default 1;
// Figure 13 runs at 10). --trace, --connections, --profile and --harness-stats are text
// reports; each is refused with --json, whose stdout is one JSON object. --profile is
// the flat profile of the measurement window, summed over all cores. --harness-stats is
// the simulator's own work in that window (src/util/harness_counters.h: events run,
// event-heap key compares, frames parsed, ...), each counter per simulated data packet.
//
// The tool only parses: the testbed's ConfigErrors says which values are out of
// range, and each of its messages is printed before the tool exits with status 2.
//
// Examples:
//   tcprx_sim stream --system=xen --optimized
//   tcprx_sim stream --aggregation --limit=8 --nics=2 --trace --measure-ms=5
//   tcprx_sim stream --system=smp --optimized --cores=4 --conns-per-nic=80
//   tcprx_sim stream --system=smp --optimized --cores=8 --conns-per-nic=80 --link-gbps=10
//   tcprx_sim stream --drop=0.01 --optimized --json

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/pcap.h"
#include "src/sim/report.h"
#include "src/sim/testbed.h"
#include "src/sim/trace.h"
#include "src/util/harness_counters.h"
#include "tools/flag_parser.h"

namespace tcprx {
namespace {

int Usage() {
  std::printf(
      "usage: tcprx_sim <stream|latency> [flags]\n"
      "  common: --system=up|smp|xen  --optimized  --aggregation  --ack-offload\n"
      "          --limit=N  --hardware-lro  --prefetch=none|partial|full  --fill-checksums\n"
      "          --link-gbps=N (every link's rate, default 1)  --json\n"
      "  stream: --nics=N  --conns-per-nic=N  --mss=N  --warmup-ms=N  --measure-ms=N\n"
      "          --cores=N (multi-core receive host, RSS on by default)  --no-rss\n"
      "          --no-rx-csum-offload  --drop=P  --reorder=P  --duplicate=P  --corrupt=P\n"
      "          --seed=N  --burst-drop-period=N  --burst-drop-length=N  --reorder-delay-us=N\n"
      "          --pcap=FILE  --trace  --trace-limit=N  --connections\n"
      "          --profile (flat profile of the window, all cores)\n"
      "          --harness-stats (the simulator's own work per data packet)\n"
      "  --trace, --connections, --profile and --harness-stats cannot be combined with --json\n");
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
  // Saturated, so that a rate past 64 bits is refused as out of range, not wrapped.
  constexpr uint64_t kBitsPerGigabit = 1'000'000'000;
  const uint64_t gbps = flags.GetUint("link-gbps", 1);
  config.link.bits_per_second =
      gbps > UINT64_MAX / kBitsPerGigabit ? UINT64_MAX : gbps * kBitsPerGigabit;
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
  lossy.reorder_delay =
      flags.GetDuration("reorder-delay-us", 40, SimDuration::FromMicros(1));
  lossy.fault_seed = flags.GetUint("seed", lossy.fault_seed);
  // Any fault value but zero installs the link, a bad one (a negative or NaN
  // probability, a burst length alone) included, so that ConfigErrors sees it.
  if (lossy.drop_probability != 0 || lossy.reorder_probability != 0 ||
      lossy.duplicate_probability != 0 || lossy.corrupt_probability != 0 ||
      lossy.burst_drop_period != 0 || lossy.burst_drop_length != 0) {
    config.client_to_server_link = lossy;
  }
  return config;
}

// Prints each of `errors`, a ConfigErrors result; true when there is none.
bool Valid(const std::vector<std::string>& errors) {
  for (const std::string& error : errors) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  return errors.empty();
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

// The simulator's own work in the measurement window, each counter per data packet.
void PrintHarnessStats(const HarnessCounters& window, uint64_t data_packets) {
  std::printf("\nharness work per data packet (%llu data packets in the window):\n",
              static_cast<unsigned long long>(data_packets));
  for (const HarnessCounterField& field : kHarnessCounterFields) {
    const double count = static_cast<double>(window.*field.value);
    std::printf("  %-24s %12.3f\n", field.name,
                data_packets > 0 ? count / static_cast<double>(data_packets) : 0.0);
  }
}

int RunStream(FlagParser& flags) {
  TestbedConfig config = BuildConfig(flags);
  config.num_nics = flags.GetUint("nics", 5);
  Testbed::StreamOptions options;
  options.connections_per_nic = flags.GetUint("conns-per-nic", 1);
  // Saturated, so that a value past 32 bits is refused as out of range, not wrapped.
  options.client_mss =
      static_cast<uint32_t>(std::min<uint64_t>(flags.GetUint("mss", 1448), UINT32_MAX));
  options.warmup = flags.GetDuration("warmup-ms", 300, SimDuration::FromMillis(1));
  options.measure = flags.GetDuration("measure-ms", 1000, SimDuration::FromMillis(1));
  if (!Valid(ConfigErrors(config, options))) {
    return 2;
  }

  const bool want_json = flags.GetBool("json");
  const bool trace = flags.GetBool("trace");
  const bool want_connections = flags.GetBool("connections");
  const bool want_profile = flags.GetBool("profile");
  const bool want_harness_stats = flags.GetBool("harness-stats");
  // --json's stdout is one JSON object: a text report can neither precede nor replace it.
  const std::pair<const char*, bool> text_reports[] = {{"trace", trace},
                                                       {"connections", want_connections},
                                                       {"profile", want_profile},
                                                       {"harness-stats", want_harness_stats}};
  for (const auto& [name, wanted] : text_reports) {
    if (want_json && wanted) {
      std::fprintf(stderr, "--%s is a text report and cannot be combined with --json\n", name);
      return 2;
    }
  }

  Testbed bed(config);

  PacketTracer tracer(bed.loop(), flags.GetUint("trace-limit", 200));
  if (trace) {
    bed.AttachTracer(tracer);
  }

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
      PrintFlatProfile(result);
    }
    if (want_harness_stats) {
      PrintHarnessStats(bed.window_harness_counters(), result.data_packets);
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
  config.num_nics = 1;  // one client, one transaction outstanding
  Testbed::LatencyOptions options;
  options.warmup = flags.GetDuration("warmup-ms", 200, SimDuration::FromMillis(1));
  options.measure = flags.GetDuration("measure-ms", 1000, SimDuration::FromMillis(1));
  if (!Valid(ConfigErrors(config, options))) {
    return 2;
  }
  const bool want_json = flags.GetBool("json");

  for (const auto& unknown : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return Usage();
  }

  Testbed bed(config);
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
  // Names are parsed here; every other value is judged by ConfigErrors once the
  // command has built its config. Stream-only flags are read only by RunStream, so
  // that `latency` reports them as unknown.
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
