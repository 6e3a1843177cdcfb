#include "bench/figures.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "src/sim/report.h"

namespace tcprx {

void ShapeCheck::Expect(bool holds, const char* claim, const char* measured, ...) {
  if (holds) {
    return;
  }
  char values[128];
  va_list args;
  va_start(args, measured);
  std::vsnprintf(values, sizeof(values), measured, args);
  va_end(args);
  failures.push_back(std::string(claim) + " (measured " + values + ")");
}

namespace {

TestbedConfig BenchConfig(SystemType system, bool optimized, size_t num_nics = 5) {
  TestbedConfig config;
  config.stack = optimized ? StackConfig::Optimized(system) : StackConfig::Baseline(system);
  config.stack.fill_tcp_checksums = false;  // tx checksum offload
  config.num_nics = num_nics;
  return config;
}

Point Stream(const TestbedConfig& config, size_t connections_per_nic = 1,
             uint64_t measure_ms = 1000, uint64_t warmup_ms = 300) {
  Testbed::StreamOptions options;
  options.connections_per_nic = connections_per_nic;
  options.warmup = SimDuration::FromMillis(warmup_ms);
  options.measure = SimDuration::FromMillis(measure_ms);
  return {config, options};
}

double GroupCycles(const StreamResult& result, std::span<const CostCategory> group) {
  double sum = 0;
  for (const CostCategory c : group) {
    sum += result.cycles_per_packet[static_cast<size_t>(c)];
  }
  return sum;
}

double GainPct(double optimized, double original) { return (optimized / original - 1) * 100; }

constexpr CostCategory kPerByteGroup[] = {CostCategory::kPerByte};
constexpr CostCategory kStackGroup[] = {CostCategory::kRx, CostCategory::kTx,
                                        CostCategory::kBuffer, CostCategory::kNonProto};
constexpr SystemType kSystems[] = {SystemType::kNativeUp, SystemType::kNativeSmp,
                                   SystemType::kXenGuest};

// Figure 1: Impact of prefetching on the relative cost of per-byte and per-packet
// operations in TCP receive processing (uniprocessor, baseline stack).
//
// The paper's motivating measurement: as the CPU's prefetchers are enabled (None ->
// adjacent-line -> adjacent + stride), the per-byte share of receive processing falls
// from ~52% to ~14% while the per-packet share rises from ~37% to ~70%, because the
// copy loop streams sequentially (prefetchable) and the per-packet bookkeeping
// chases pointers (not prefetchable).
constexpr PrefetchMode kPrefetchModes[] = {PrefetchMode::kNone, PrefetchMode::kAdjacent,
                                           PrefetchMode::kFull};

Figure Fig01() {
  Figure f("fig01",
           "Figure 1: Per-byte vs per-packet overhead share vs prefetch aggressiveness (UP)");
  for (const PrefetchMode mode : kPrefetchModes) {
    TestbedConfig config = BenchConfig(SystemType::kNativeUp, false, /*num_nics=*/1);
    config.stack.prefetch = mode;
    f.points.push_back(Stream(config));
  }
  f.print = [](const Results& r) {
    constexpr CostCategory kPerPacketGroup[] = {
        CostCategory::kRx,       CostCategory::kTx,     CostCategory::kBuffer,
        CostCategory::kNonProto, CostCategory::kDriver, CostCategory::kAggr,
    };
    constexpr CostCategory kMiscGroup[] = {CostCategory::kMisc};
    constexpr double kPaper[][3] = {{52, 37, 11}, {35, 52, 13}, {14, 70, 16}};
    for (size_t i = 0; i < std::size(kPrefetchModes); ++i) {
      const StreamResult& result = r.stream(i);
      std::printf("%-8s per-byte %5.1f%%  per-packet %5.1f%%  misc %5.1f%%   "
                  "(paper: %2.0f%% / %2.0f%% / %2.0f%%)   [%.0f cycles/pkt]\n",
                  PrefetchModeName(kPrefetchModes[i]), CategoryShare(result, kPerByteGroup),
                  CategoryShare(result, kPerPacketGroup), CategoryShare(result, kMiscGroup),
                  kPaper[i][0], kPaper[i][1], kPaper[i][2], result.total_cycles_per_packet);
    }
  };
  return f;
}

// Figure 2: Per-byte vs per-packet overhead in uniprocessor, multiprocessor and
// virtualized systems (full prefetching enabled, baseline stacks).
//
// Paper reference: in all three systems the per-packet share far exceeds the per-byte
// share — UP ~70/14, SMP slightly more per-packet (locking), Xen per-packet ~56% vs
// per-byte ~14% despite TWO data copies on the receive path.
Figure Fig02() {
  Figure f("fig02", "Figure 2: Per-byte vs per-packet share across systems (full prefetch)");
  for (const SystemType system : kSystems) {
    f.points.push_back(Stream(BenchConfig(system, false, system == SystemType::kXenGuest ? 2 : 1)));
  }
  f.print = [](const Results& r) {
    constexpr CostCategory kPerPacketGroupNative[] = {
        CostCategory::kRx,       CostCategory::kTx,     CostCategory::kBuffer,
        CostCategory::kNonProto, CostCategory::kDriver,
    };
    // For Xen the paper's "per-packet" grouping covers the virtualization stack routines
    // as well (non-proto, netback, netfront, tcp rx/tx, buffer) plus the driver.
    constexpr CostCategory kPerPacketGroupXen[] = {
        CostCategory::kRx,       CostCategory::kTx,      CostCategory::kBuffer,
        CostCategory::kNonProto, CostCategory::kNetback, CostCategory::kNetfront,
        CostCategory::kDriver,
    };
    constexpr double kPaper[][2] = {{17, 67}, {16, 70}, {14, 56}};
    for (size_t i = 0; i < std::size(kSystems); ++i) {
      const StreamResult& result = r.stream(i);
      const auto per_packet_group = kSystems[i] == SystemType::kXenGuest
                                        ? std::span<const CostCategory>(kPerPacketGroupXen)
                                        : std::span<const CostCategory>(kPerPacketGroupNative);
      std::printf("%-10s per-byte %5.1f%%  per-packet %5.1f%%   (paper: ~%2.0f%% / ~%2.0f%%)\n",
                  SystemTypeName(kSystems[i]), CategoryShare(result, kPerByteGroup),
                  CategoryShare(result, per_packet_group), kPaper[i][0], kPaper[i][1]);
    }
  };
  return f;
}

// Figure 3: Breakdown of receive processing overheads in a uniprocessor system
// (baseline stack, full prefetching).
//
// Paper reference shares of the total: driver ~21%, TCP rx+tx ~21%, buffer +
// non-proto ~25%, per-byte ~17%, misc ~16%; the per-packet routines excluding the
// driver (46%) dominate the per-byte copy (17%).
Figure Fig03() {
  Figure f("fig03", "Figure 3: Receive processing overhead breakdown (Linux UP, baseline)");
  f.points = {Stream(BenchConfig(SystemType::kNativeUp, false))};
  f.print = [](const Results& r) {
    const StreamResult& result = r.stream(0);
    PrintBreakdownTable("cycles per packet", NativeFigureCategories(), {"Uniprocessor"},
                        {&result});
    const CostCategory kProto[] = {CostCategory::kRx, CostCategory::kTx};
    const CostCategory kBufNonProto[] = {CostCategory::kBuffer, CostCategory::kNonProto};
    const CostCategory kDriverGroup[] = {CostCategory::kDriver};
    std::printf("\nshares of total (paper in parentheses):\n");
    std::printf("  driver                 %5.1f%%  (21%%)\n", CategoryShare(result, kDriverGroup));
    std::printf("  TCP/IP rx+tx           %5.1f%%  (21%%)\n", CategoryShare(result, kProto));
    std::printf("  buffer + non-proto     %5.1f%%  (25%%)\n", CategoryShare(result, kBufNonProto));
    std::printf("  per-packet (no driver) %5.1f%%  (46%%)\n", CategoryShare(result, kStackGroup));
    std::printf("  per-byte               %5.1f%%  (17%%)\n", CategoryShare(result, kPerByteGroup));
    PrintStreamSummary("Linux UP baseline", result);
  };
  return f;
}

// Figure 4: Breakdown of receive processing overheads, SMP vs UP (baseline stacks).
//
// Paper reference: per-byte copy and buffer management are essentially unchanged
// (lock-free), while the TCP receive routines cost ~62% more and the transmit
// routines ~40% more on SMP, because the per-packet protocol paths take
// lock-prefixed atomics.
Figure Fig04() {
  Figure f("fig04", "Figure 4: Receive processing overheads, UP vs SMP (baseline)");
  f.points = {Stream(BenchConfig(SystemType::kNativeUp, false)),
              Stream(BenchConfig(SystemType::kNativeSmp, false))};
  f.print = [](const Results& r) {
    const StreamResult& up = r.stream(0);
    const StreamResult& smp = r.stream(1);
    PrintBreakdownTable("cycles per packet", NativeFigureCategories(), {"UP", "SMP"},
                        {&up, &smp});
    auto ratio = [&](CostCategory c) {
      const double u = up.cycles_per_packet[static_cast<size_t>(c)];
      const double s = smp.cycles_per_packet[static_cast<size_t>(c)];
      return u > 0 ? (s / u - 1) * 100 : 0;
    };
    std::printf("\nSMP inflation (paper in parentheses):\n");
    std::printf("  rx       %+5.1f%%  (+62%%)\n", ratio(CostCategory::kRx));
    std::printf("  tx       %+5.1f%%  (+40%%)\n", ratio(CostCategory::kTx));
    std::printf("  buffer   %+5.1f%%  (~0%%)\n", ratio(CostCategory::kBuffer));
    std::printf("  per-byte %+5.1f%%  (~0%%)\n", ratio(CostCategory::kPerByte));
    PrintStreamSummary("UP", up);
    PrintStreamSummary("SMP", smp);
  };
  return f;
}

// Figure 5: the Xen network virtualization architecture.
//
// The paper's Figure 5 is a block diagram; the closest executable reproduction is to
// walk a packet through the implemented pipeline and annotate each stage with its
// measured per-packet cost from the baseline profile, so the diagram carries numbers.
Figure Fig05() {
  Figure f("fig05", "Figure 5: Xen I/O architecture, annotated with measured costs");
  f.points = {Stream(BenchConfig(SystemType::kXenGuest, false, 2), 1, 500)};
  f.print = [](const Results& results) {
    const StreamResult& r = results.stream(0);
    auto at = [&](CostCategory c) { return r.cycles_per_packet[static_cast<size_t>(c)]; };
    std::printf(R"(
   Driver Domain                                  Guest Domain
  +--------------------------------------+      +-----------------------------+
  |  NIC driver          %6.0f cyc/pkt  |      |  netfront   %6.0f cyc/pkt  |
  |       |                              |      |      |                      |
  |  [Receive Aggregation would go here] |      |  guest TCP  %6.0f cyc/pkt  |
  |       v                              |      |      |      (rx + tx)       |
  |  bridge + netfilter  %6.0f cyc/pkt  |      |      v                      |
  |       |              (non-proto)     |      |  copy to application        |
  |       v                              |      |             (in per-byte)   |
  |  netback             %6.0f cyc/pkt  |      +-----------------------------+
  +-------|------------------------------+                  ^
          v                                                 |
  ===== I/O channel: grant copy, %6.0f cyc/pkt (xen) ======+
          (data copies: per-byte total %6.0f cyc/pkt, both copies)

   buffer management (both domains): %6.0f cyc/pkt
   scheduling / misc (both domains): %6.0f cyc/pkt
   total                            %6.0f cyc/pkt  ->  %4.0f Mb/s per guest
)",
                at(CostCategory::kDriver), at(CostCategory::kNetfront),
                at(CostCategory::kRx) + at(CostCategory::kTx), at(CostCategory::kNonProto),
                at(CostCategory::kNetback), at(CostCategory::kXen), at(CostCategory::kPerByte),
                at(CostCategory::kBuffer), at(CostCategory::kMisc), r.total_cycles_per_packet,
                r.throughput_mbps);
    std::printf("\nEvery stage between the NIC driver and the guest stack is per-packet\n"
                "work; that is why the paper inserts Receive Aggregation immediately after\n"
                "the physical driver, so one aggregated packet carries up to 20 segments\n"
                "through the whole pipeline (sections 2.4, 5.1).\n");
  };
  return f;
}

// Figure 6: Breakdown of receive processing overheads in Xen (baseline stack).
//
// Paper reference: the per-packet routines of the receive path (non-proto, netback,
// netfront, tcp rx, tcp tx, buffer) add up to ~56% of the total, far above the
// per-byte copies (~14%) even though the Xen path copies the data twice. The
// virtualization routines alone (non-proto + netback + netfront + buffer) are ~46%,
// dwarfing guest TCP/IP protocol processing (~10%).
constexpr CostCategory kXenPerPacketGroup[] = {CostCategory::kNonProto, CostCategory::kNetback,
                                               CostCategory::kNetfront, CostCategory::kRx,
                                               CostCategory::kTx,       CostCategory::kBuffer};

Figure Fig06() {
  Figure f("fig06", "Figure 6: Receive processing overhead breakdown (Xen guest, baseline)");
  f.points = {Stream(BenchConfig(SystemType::kXenGuest, false))};
  f.print = [](const Results& r) {
    const StreamResult& result = r.stream(0);
    PrintBreakdownTable("cycles per packet", XenFigureCategories(), {"Xen"}, {&result});
    const CostCategory kVirtOnly[] = {CostCategory::kNonProto, CostCategory::kNetback,
                                      CostCategory::kNetfront, CostCategory::kBuffer};
    const CostCategory kProto[] = {CostCategory::kRx, CostCategory::kTx};
    std::printf("\nshares of total (paper in parentheses):\n");
    std::printf("  per-packet routines     %5.1f%%  (56%%)\n",
                CategoryShare(result, kXenPerPacketGroup));
    std::printf("  virtualization routines %5.1f%%  (46%%)\n", CategoryShare(result, kVirtOnly));
    std::printf("  guest TCP/IP            %5.1f%%  (10%%)\n", CategoryShare(result, kProto));
    std::printf("  per-byte (two copies)   %5.1f%%  (14%%)\n",
                CategoryShare(result, kPerByteGroup));
    PrintStreamSummary("Xen baseline", result);
  };
  return f;
}

// Figure 7: Overall performance improvement.
//
// Reproduces the paper's headline experiment: receive throughput of the netperf-like
// stream microbenchmark over five Gigabit NICs, for the three systems, with and
// without the receive optimizations, plus the aggregation-only ablation reported in
// the text of section 5.1.
//
// Paper reference (Mb/s): Linux UP 3452 -> 4660 (93% CPU, +45% CPU-scaled),
// Linux SMP 2988 -> 4660 (+67% CPU-scaled), Xen guest 1088 -> 1877 (+86%).
// Aggregation-only gains: 26% / 36% / 45%.
Figure Fig07() {
  Figure f("fig07", "Figure 7: Overall throughput, Original vs Optimized (5 Gigabit NICs)");
  for (const SystemType system : kSystems) {
    TestbedConfig aggr_only_config = BenchConfig(system, true);
    aggr_only_config.stack.ack_offload = false;
    f.points.push_back(Stream(BenchConfig(system, false)));
    f.points.push_back(Stream(BenchConfig(system, true)));
    f.points.push_back(Stream(aggr_only_config));
  }
  f.print = [](const Results& r) {
    constexpr double kPaper[][3] = {{3452, 4660, 26}, {2988, 4660, 36}, {1088, 1877, 45}};
    for (size_t i = 0; i < std::size(kSystems); ++i) {
      const StreamResult& original = r.stream(3 * i);
      const StreamResult& optimized = r.stream(3 * i + 1);
      const StreamResult& aggr_only = r.stream(3 * i + 2);
      std::printf("\n--- %s ---\n", SystemTypeName(kSystems[i]));
      PrintStreamSummary("Original", original);
      PrintStreamSummary("Optimized", optimized);
      PrintStreamSummary("Aggregation only", aggr_only);
      const double gain = GainPct(optimized.throughput_mbps, original.throughput_mbps);
      const double scaled_gain = GainPct(optimized.cpu_scaled_mbps, original.throughput_mbps);
      const double aggr_gain = GainPct(aggr_only.throughput_mbps, original.throughput_mbps);
      std::printf("gain: %+.0f%% absolute, %+.0f%% CPU-scaled, %+.0f%% aggregation-only\n",
                  gain, scaled_gain, aggr_gain);
      std::printf("paper: %.0f -> %.0f Mb/s (aggregation-only gain %+.0f%%)\n", kPaper[i][0],
                  kPaper[i][1], kPaper[i][2]);
    }
  };
  f.shapes = [](const Results& r, ShapeCheck& check) {
    double gain[3] = {};
    for (size_t i = 0; i < 3; ++i) {
      gain[i] = GainPct(r.stream(3 * i + 1).throughput_mbps, r.stream(3 * i).throughput_mbps);
    }
    check.Expect(gain[0] < gain[1] && gain[1] < gain[2], "relative gain UP < SMP < Xen",
                 "%+.0f%% / %+.0f%% / %+.0f%%", gain[0], gain[1], gain[2]);
  };
  return f;
}

// Figures 8, 9 and 10: cycles per network data packet by category, Original vs
// Optimized, and how far the per-packet categories in `group` (printed as
// `group_label`) shrink.
Figure OptimizedBreakdown(const char* name, const char* title, SystemType system,
                          const char* table, const char* group_label,
                          std::span<const CostCategory> group, double paper_factor) {
  Figure f(name, title);
  f.points = {Stream(BenchConfig(system, false)), Stream(BenchConfig(system, true))};
  f.print = [=](const Results& r) {
    const StreamResult& original = r.stream(0);
    const StreamResult& optimized = r.stream(1);
    PrintBreakdownTable(
        table, system == SystemType::kXenGuest ? XenFigureCategories() : NativeFigureCategories(),
        {"Original", "Optimized"}, {&original, &optimized});
    const double before = GroupCycles(original, group);
    const double after = GroupCycles(optimized, group);
    std::printf("\n%s: %.0f -> %.0f cycles/packet (factor %.1f; paper %.1f)\n", group_label,
                before, after, before / after, paper_factor);
    if (system == SystemType::kNativeUp) {
      std::printf("driver reduction: %.0f cycles/packet (paper ~681 minus ACK-expansion cost)\n",
                  original.cycles_per_packet[static_cast<size_t>(CostCategory::kDriver)] -
                      optimized.cycles_per_packet[static_cast<size_t>(CostCategory::kDriver)]);
      std::printf("avg aggregation factor: %.1f (limit 20)\n", optimized.avg_aggregation);
    }
    PrintStreamSummary("Original", original);
    PrintStreamSummary("Optimized", optimized);
  };
  return f;
}

// Figure 8: Receive processing overheads (UP), Original vs Optimized.
//
// Cycles per network data packet, by category, for the native uniprocessor system.
// Paper reference points: the per-packet stack components (rx, tx, buffer, non-proto)
// shrink by a factor of ~4.3; the aggregation routine costs ~789 cycles/packet of
// compulsory cache miss plus bookkeeping; the driver loses the ~681 cycles/packet of
// MAC processing that moved into the aggregation routine; per-byte and misc are
// roughly unchanged.
Figure Fig08() {
  return OptimizedBreakdown(
      "fig08", "Figure 8: Receive processing overheads (UP), Original vs Optimized",
      SystemType::kNativeUp, "cycles per packet (Linux UP)", "per-packet stack components",
      kStackGroup, 4.3);
}

// Figure 9: Receive processing overheads (SMP), Original vs Optimized.
//
// Same experiment as Figure 8 on the SMP kernel. Paper reference: the per-packet
// stack components shrink by a factor of ~5.5 (more than UP, because the SMP locking
// overhead concentrated in rx/tx amortizes with aggregation), and the optimizations
// themselves are CPU-local and add no synchronization cost.
Figure Fig09() {
  return OptimizedBreakdown(
      "fig09", "Figure 9: Receive processing overheads (SMP), Original vs Optimized",
      SystemType::kNativeSmp, "cycles per packet (Linux SMP)", "per-packet stack components",
      kStackGroup, 5.5);
}

// Figure 10: Receive processing overheads (Xen), Original vs Optimized.
//
// Cycles per network data packet for the Linux guest on Xen. Paper reference: the
// per-packet routines of the network virtualization stack (non-proto, netback,
// netfront, tcp rx, tcp tx, buffer) shrink by a factor of ~3.7; the biggest reduction
// is in the bridging/netfilter (non-proto) routines; netback/netfront shrink less
// because they retain a per-fragment cost; aggr itself stays small.
Figure Fig10() {
  return OptimizedBreakdown(
      "fig10", "Figure 10: Receive processing overheads (Xen), Original vs Optimized",
      SystemType::kXenGuest, "cycles per packet (Xen guest)",
      "virtualization per-packet routines", kXenPerPacketGroup, 3.7);
}

// Figure 11: CPU overhead vs Aggregation Limit (uniprocessor, optimized stack).
//
// Paper reference: cycles/packet falls sharply for small limits and flattens out; a
// limit of 20 captures nearly all of the benefit, and the curve fits x + y/k (the
// aggregatable share y amortizing with the factor k). Section 5.5 additionally
// promises that a limit of 1 does not regress measurably against the baseline.
constexpr size_t kLimits[] = {1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 35};

// The least-squares fit of cycles = x + y/k over the measured effective factors, and
// the sweep's two comparisons. Point 0 is the baseline, point 1 + i is kLimits[i].
struct LimitSweep {
  double x, y, r2;
  double limit1_vs_baseline_pct;
  double limit20_capture_pct;  // share of the limit-35 benefit that limit 20 captures
};

LimitSweep FitLimitSweep(const Results& r) {
  const double baseline = r.stream(0).total_cycles_per_packet;
  double s1 = 0, sk = 0, skk = 0, sc = 0, sck = 0;
  for (size_t i = 1; i <= std::size(kLimits); ++i) {
    const double inv_k = 1.0 / r.stream(i).avg_aggregation;
    s1 += 1;
    sk += inv_k;
    skk += inv_k * inv_k;
    sc += r.stream(i).total_cycles_per_packet;
    sck += r.stream(i).total_cycles_per_packet * inv_k;
  }
  const double det = s1 * skk - sk * sk;
  const double x = (sc * skk - sck * sk) / det;
  const double y = (s1 * sck - sk * sc) / det;
  double rss = 0, tss = 0;
  const double mean = sc / s1;
  for (size_t i = 1; i <= std::size(kLimits); ++i) {
    const double cycles = r.stream(i).total_cycles_per_packet;
    const double fit = x + y / r.stream(i).avg_aggregation;
    rss += (cycles - fit) * (cycles - fit);
    tss += (cycles - mean) * (cycles - mean);
  }
  return {x, y, 1 - rss / tss, (r.stream(1).total_cycles_per_packet / baseline - 1) * 100,
          (baseline - r.stream(8).total_cycles_per_packet) /
              (baseline - r.stream(std::size(kLimits)).total_cycles_per_packet) * 100};
}

Figure Fig11() {
  Figure f("fig11", "Figure 11: CPU cycles per packet vs Aggregation Limit (Linux UP)");
  // Five NICs keep the CPU saturated for small limits, so the sustained backlog lets
  // aggregates actually reach the configured limit; at large limits the CPU frees up
  // and the effective factor self-limits, which is part of the flattening.
  // Pin the NICs' interrupt moderation to a deep bulk ITR (~450 us) so the
  // per-flow backlog always exceeds the sweep's limits: the Aggregation Limit, not
  // the interrupt batch depth, is then the binding constraint being measured.
  TestbedConfig base_config = BenchConfig(SystemType::kNativeUp, false);
  base_config.nic.moderation_delay = SimDuration::FromMicros(450);
  f.points.push_back(Stream(base_config, 1, 600));
  for (const size_t limit : kLimits) {
    TestbedConfig config = BenchConfig(SystemType::kNativeUp, true);
    config.nic.moderation_delay = SimDuration::FromMicros(450);
    config.stack.aggregation_limit = limit;
    f.points.push_back(Stream(config, 1, 600));
  }
  f.print = [](const Results& r) {
    std::printf("\n%-8s %16s %12s\n", "limit", "cycles/packet", "avg aggr");
    std::printf("%-8s %16.0f %12s   <- baseline (no aggregation)\n", "-",
                r.stream(0).total_cycles_per_packet, "1.00");
    for (size_t i = 0; i < std::size(kLimits); ++i) {
      std::printf("%-8zu %16.0f %12.2f\n", kLimits[i], r.stream(1 + i).total_cycles_per_packet,
                  r.stream(1 + i).avg_aggregation);
    }
    const LimitSweep sweep = FitLimitSweep(r);
    std::printf("\nfit cycles(k) = x + y/k: x = %.0f, y = %.0f, R^2 = %.4f "
                "(paper: curve matches x + y/k well)\n",
                sweep.x, sweep.y, sweep.r2);
    std::printf("limit 1 vs baseline: %+.1f%% (paper: no degradation observed)\n",
                sweep.limit1_vs_baseline_pct);
    std::printf("limit 20 captures %.0f%% of the limit-35 benefit (paper: choose 20)\n",
                sweep.limit20_capture_pct);
  };
  f.shapes = [](const Results& r, ShapeCheck& check) {
    const LimitSweep sweep = FitLimitSweep(r);
    check.Expect(sweep.limit1_vs_baseline_pct <= 3, "limit 1 within +3% of baseline", "%+.1f%%",
                 sweep.limit1_vs_baseline_pct);
    check.Expect(sweep.r2 >= 0.9, "fit R^2 >= 0.9", "%.4f", sweep.r2);
    check.Expect(sweep.limit20_capture_pct >= 95,
                 "limit 20 captures >= 95% of the limit-35 benefit", "%.0f%%",
                 sweep.limit20_capture_pct);
  };
  return f;
}

// Figure 12: Throughput scalability with the number of concurrent connections
// (Linux SMP, Original vs Optimized).
//
// Paper reference: the optimized system keeps its advantage as connections grow to
// 400, staying >= 40% above the baseline at 400 connections — aggregation still finds
// in-sequence runs per flow even with hundreds of concurrent flows, because interrupt
// batching delivers bursts from each.
constexpr size_t kConnectionTotals[] = {5, 25, 50, 100, 200, 400};

Figure Fig12() {
  Figure f("fig12", "Figure 12: Throughput vs number of connections (Linux SMP, 5 NICs)");
  for (const size_t total : kConnectionTotals) {
    f.points.push_back(Stream(BenchConfig(SystemType::kNativeSmp, false), total / 5, 700));
    f.points.push_back(Stream(BenchConfig(SystemType::kNativeSmp, true), total / 5, 700));
  }
  f.print = [](const Results& r) {
    std::printf("\n%-12s %14s %14s %8s %10s\n", "connections", "Original Mb/s",
                "Optimized Mb/s", "gain", "avg aggr");
    double last_gain = 0;
    for (size_t i = 0; i < std::size(kConnectionTotals); ++i) {
      const StreamResult& original = r.stream(2 * i);
      const StreamResult& optimized = r.stream(2 * i + 1);
      last_gain = GainPct(optimized.throughput_mbps, original.throughput_mbps);
      std::printf("%-12zu %14.0f %14.0f %+7.0f%% %10.2f\n", kConnectionTotals[i],
                  original.throughput_mbps, optimized.throughput_mbps, last_gain,
                  optimized.avg_aggregation);
    }
    std::printf("\npaper: optimized stays ~40%% above baseline at 400 connections "
                "(measured %+.0f%%)\n", last_gain);
  };
  f.shapes = [](const Results& r, ShapeCheck& check) {
    const double gain = GainPct(r.stream(11).throughput_mbps, r.stream(10).throughput_mbps);
    check.Expect(gain >= 40, "optimized >= +40% at 400 connections", "%+.0f%%", gain);
  };
  return f;
}

// Figure 13 (beyond the paper): aggregate receive throughput vs number of cores.
//
// The paper evaluates a serialized receive path (one CPU owns the stack; the SMP
// column only pays extra locking). This experiment asks the follow-on question: how
// far does the receive path scale when the host gets N cores, each NIC exposes one
// RSS queue per core, and every core runs its own poll driver + stack shard
// (src/smp/)? Links are 10 Gb/s so a single core is CPU-bound and extra cores have
// headroom to show up as throughput.
//
// RSS keeps every flow core-affine, so the only cross-core costs are the shared
// cache lines of the receive path (DMA pool counters, FIB). The --no-rss ablation
// row shows what happens without hardware steering: frames land round-robin, the
// software flow director redirects most of them, and the redirect + backlog cycles
// eat much of the win.
constexpr size_t kCoreCounts[] = {1, 2, 4, 8};

Point Cores(bool optimized, size_t cores, bool rss) {
  TestbedConfig config = BenchConfig(SystemType::kNativeSmp, optimized);
  config.link.bits_per_second = 10'000'000'000;  // CPU-bound even at 8 cores
  config.smp.num_cores = cores;
  config.smp.rss.enabled = rss;
  return Stream(config, /*connections_per_nic=*/80, 500);  // 400 connections total
}

void PrintCoresRow(const char* label, const StreamResult& r, double base_mbps) {
  std::printf("%-18s %10.0f %8.2fx %7.1f%% %10.1f%% %11llu %12llu\n", label,
              r.throughput_mbps, r.throughput_mbps / base_mbps, r.cpu_utilization * 100.0,
              r.load_imbalance * 100.0, static_cast<unsigned long long>(r.intercore_transfers),
              static_cast<unsigned long long>(r.misdirected_packets));
}

Figure Fig13() {
  Figure f("fig13",
           "Figure 13: Multi-core receive scaling (Linux SMP, 5x 10GbE, 400 connections)");
  for (const size_t cores : kCoreCounts) {
    f.points.push_back(Cores(false, cores, true));
    f.points.push_back(Cores(true, cores, true));
  }
  f.points.push_back(Cores(true, 4, false));
  f.print = [](const Results& r) {
    std::printf("\n%-18s %10s %9s %8s %11s %11s %12s\n", "config", "Mb/s", "scaling", "cpu",
                "imbalance", "xfers", "misdirected");
    for (size_t i = 0; i < std::size(kCoreCounts); ++i) {
      char label[32];
      std::snprintf(label, sizeof(label), "baseline %zu-core", kCoreCounts[i]);
      PrintCoresRow(label, r.stream(2 * i), r.stream(0).throughput_mbps);
      std::snprintf(label, sizeof(label), "optimized %zu-core", kCoreCounts[i]);
      PrintCoresRow(label, r.stream(2 * i + 1), r.stream(1).throughput_mbps);
    }
    std::printf("\nablation: software steering instead of RSS (4 cores)\n");
    PrintCoresRow("optimized no-RSS", r.stream(8), r.stream(1).throughput_mbps);
    std::printf(
        "\ntarget: >2.5x aggregate throughput at 4 cores vs 1 core "
        "(optimized measured %.2fx)\n",
        r.stream(5).throughput_mbps / r.stream(1).throughput_mbps);
  };
  f.shapes = [](const Results& r, ShapeCheck& check) {
    const double opt4 = r.stream(5).throughput_mbps;
    check.Expect(opt4 / r.stream(1).throughput_mbps >= 3.5, "optimized 4-core scaling >= 3.5x",
                 "%.2fx", opt4 / r.stream(1).throughput_mbps);
    check.Expect(r.stream(8).throughput_mbps < opt4, "no-RSS below RSS at 4 cores",
                 "%.0f vs %.0f Mb/s", r.stream(8).throughput_mbps, opt4);
  };
  return f;
}

// Table 1: Impact of the receive optimizations on latency-sensitive workloads.
//
// The netperf TCP request/response benchmark: 1-byte ping-pong, one transaction
// outstanding. Paper reference (requests/second):
//   Linux UP   7874 -> 7894,  Linux SMP  7970 -> 7985,  Xen  6965 -> 6953.
// The point is the *delta*: Receive Aggregation is work-conserving, so a lone packet
// is never held back and the request/response rate is unchanged by the optimizations.
double RrDeltaPct(const Results& r, size_t system) {
  return GainPct(r.latency(2 * system + 1).transactions_per_sec,
                 r.latency(2 * system).transactions_per_sec);
}

Figure Table1() {
  Figure f("table1", "Table 1: TCP request/response rate (requests/s), Original vs Optimized");
  Testbed::LatencyOptions options;
  options.warmup = SimDuration::FromMillis(200);
  options.measure = SimDuration::FromMillis(2000);
  for (const SystemType system : kSystems) {
    f.points.push_back({BenchConfig(system, false, /*num_nics=*/1), options});
    f.points.push_back({BenchConfig(system, true, /*num_nics=*/1), options});
  }
  f.print = [](const Results& r) {
    constexpr double kPaper[][2] = {{7874, 7894}, {7970, 7985}, {6965, 6953}};
    std::printf("%-10s %10s %10s\n", "system", "Original", "Optimized");
    for (size_t i = 0; i < std::size(kSystems); ++i) {
      std::printf("%-10s %10.0f %10.0f  (%+.2f%%)   paper: %.0f -> %.0f (%+.2f%%)\n",
                  SystemTypeName(kSystems[i]), r.latency(2 * i).transactions_per_sec,
                  r.latency(2 * i + 1).transactions_per_sec, RrDeltaPct(r, i), kPaper[i][0],
                  kPaper[i][1], GainPct(kPaper[i][1], kPaper[i][0]));
    }
  };
  f.shapes = [](const Results& r, ShapeCheck& check) {
    const double up = RrDeltaPct(r, 0), smp = RrDeltaPct(r, 1), xen = RrDeltaPct(r, 2);
    check.Expect(std::max({std::abs(up), std::abs(smp), std::abs(xen)}) < 0.5,
                 "|delta| < 0.5% on every system", "%+.2f%% / %+.2f%% / %+.2f%%", up, smp, xen);
  };
  return f;
}

// Ablations for the design choices and alternatives the paper discusses:
//
//  A. Jumbo frames (section 6): a 9000-byte MTU also cuts per-packet overhead, but
//     needs the whole LAN upgraded; Receive Aggregation gets comparable wins on a
//     standard 1500-byte network.
//  B. Hardware LRO (section 6, Neterion): coalescing in the NIC additionally
//     amortizes the driver, but the paper's software approach captures most of the
//     benefit NIC-independently — and composes with Acknowledgment Offload, which
//     the hardware lacks.
//  C. Rx checksum offload (section 3.1): without it, every byte is checksummed in
//     software and aggregation disables itself; the numbers show why the paper makes
//     offload a hard precondition.
//  D. Acknowledgment Offload alone (section 4.3): without aggregation the TCP layer
//     almost never owes more than one ACK at a time, so offload has nothing to batch.
//  E. Delayed ACKs: with them disabled the receiver acks every segment, twice the ACK
//     traffic and proportionally more for ACK offload to save.
//  F. SACK under burst loss: SACK is a receive-path feature the paper's bypass rules
//     accommodate. Its value shows under *correlated* loss on a path with a full
//     window in flight: NewReno repairs one hole per RTT, SACK repairs every known
//     hole within the first RTT.
Figure Ablations() {
  Figure f("ablations", "Ablations: design choices and alternatives from the paper");
  const TestbedConfig up_base = BenchConfig(SystemType::kNativeUp, false);
  const TestbedConfig up_opt = BenchConfig(SystemType::kNativeUp, true);
  TestbedConfig software = up_opt;  // aggregation without ACK offload
  software.stack.ack_offload = false;
  TestbedConfig hardware = software;
  hardware.stack.hardware_lro = true;
  TestbedConfig hw_plus_ack = hardware;
  hw_plus_ack.stack.ack_offload = true;
  TestbedConfig no_offload = up_base;
  no_offload.nic.rx_checksum_offload = false;
  TestbedConfig aggr_no_offload = up_opt;
  aggr_no_offload.nic.rx_checksum_offload = false;
  TestbedConfig offload_only = up_base;
  offload_only.stack.ack_offload = true;
  TestbedConfig no_delack = software;
  // Note: delayed_acks is a per-connection setting applied by the stack acceptor.
  no_delack.stack.delayed_acks = false;
  TestbedConfig no_delack_offload = no_delack;
  no_delack_offload.stack.ack_offload = true;
  for (const TestbedConfig& config :
       {up_base, up_base, up_opt, software, hardware, hw_plus_ack, up_base, no_offload,
        aggr_no_offload, up_base, offload_only, software, no_delack, no_delack_offload}) {
    f.points.push_back(Stream(config, 1, 700));
  }
  std::get<Testbed::StreamOptions>(f.points[1].options).client_mss = 8948;  // jumbo frames
  for (const bool sack : {false, true}) {
    TestbedConfig config = BenchConfig(SystemType::kNativeUp, true, 1);
    config.stack.sack = sack;
    config.link.propagation_delay = SimDuration::FromMillis(5);
    LinkConfig lossy = config.link;
    lossy.burst_drop_period = 600;
    lossy.burst_drop_length = 6;
    config.client_to_server_link = lossy;
    f.points.push_back(Stream(config, 1, 3000, 500));
  }
  f.print = [](const Results& r) {
    std::printf("\n--- A. Jumbo frames vs Receive Aggregation (Linux UP, 5 NICs) ---\n");
    PrintStreamSummary("baseline, MTU 1500", r.stream(0));
    PrintStreamSummary("baseline, jumbo 9000", r.stream(1));
    PrintStreamSummary("aggregation, MTU 1500", r.stream(2));
    std::printf("-> jumbo frames help (%+.0f%%) but need a LAN upgrade; aggregation gets\n"
                "   %+.0f%% on the standard MTU in software only (paper section 6).\n",
                GainPct(r.stream(1).throughput_mbps, r.stream(0).throughput_mbps),
                GainPct(r.stream(2).throughput_mbps, r.stream(0).throughput_mbps));

    std::printf("\n--- B. Software aggregation vs hardware LRO (Linux UP, 5 NICs) ---\n");
    PrintStreamSummary("software aggregation", r.stream(3));
    PrintStreamSummary("hardware LRO", r.stream(4));
    PrintStreamSummary("hardware LRO + ack offload", r.stream(5));
    std::printf("-> LRO additionally amortizes the driver (%.0f vs %.0f cycles/pkt), but\n"
                "   software aggregation is NIC-independent and captures most of the win;\n"
                "   the Neterion NIC offers no Acknowledgment Offload (paper section 6).\n",
                r.stream(4).total_cycles_per_packet, r.stream(3).total_cycles_per_packet);

    std::printf("\n--- C. Rx checksum offload as a precondition (Linux UP, 5 NICs) ---\n");
    PrintStreamSummary("baseline, csum offload", r.stream(6));
    PrintStreamSummary("baseline, sw checksum", r.stream(7));
    PrintStreamSummary("aggregation, sw checksum", r.stream(8));
    std::printf("-> without rx checksum offload the aggregator bypasses every packet\n"
                "   (avg aggregation %.2f) and software checksumming adds per-byte cost;\n"
                "   hence the paper disables aggregation outright (section 3.1).\n",
                r.stream(8).avg_aggregation);

    std::printf("\n--- D. Acknowledgment Offload without aggregation (Linux UP) ---\n");
    PrintStreamSummary("baseline", r.stream(9));
    PrintStreamSummary("ack offload alone", r.stream(10));
    std::printf("-> templates need runs of consecutive ACKs, which only aggregation\n"
                "   creates: %llu templates were built (paper section 4.3).\n",
                static_cast<unsigned long long>(r.stream(10).ack_templates));

    std::printf("\n--- E. Delayed ACKs amplify Acknowledgment Offload (Linux UP) ---\n");
    PrintStreamSummary("aggr, delayed acks", r.stream(11));
    PrintStreamSummary("aggr, ack-every-seg", r.stream(12));
    PrintStreamSummary("aggr+offload, every-seg", r.stream(13));
    std::printf("-> acking every segment doubles ACK volume (%llu vs %llu on the wire);\n"
                "   offload claws the tx cost back (%.0f -> %.0f cycles/pkt).\n",
                static_cast<unsigned long long>(r.stream(12).acks_on_wire),
                static_cast<unsigned long long>(r.stream(11).acks_on_wire),
                r.stream(12).total_cycles_per_packet, r.stream(13).total_cycles_per_packet);

    std::printf("\n--- F. SACK under burst loss (10 ms RTT, 6-frame bursts) ---\n");
    PrintStreamSummary("NewReno (no SACK)", r.stream(14));
    PrintStreamSummary("NewReno + SACK", r.stream(15));
    std::printf("-> SACK repairs a whole loss burst within one RTT: %+.0f%% goodput\n"
                "   (%llu vs %llu retransmissions; both streams stay byte-exact).\n",
                GainPct(r.stream(15).throughput_mbps, r.stream(14).throughput_mbps),
                static_cast<unsigned long long>(r.stream(15).retransmits),
                static_cast<unsigned long long>(r.stream(14).retransmits));
  };
  return f;
}

}  // namespace

const std::vector<Figure>& Figures() {
  static const std::vector<Figure> figures = {
      Fig01(), Fig02(), Fig03(), Fig04(), Fig05(), Fig06(),  Fig07(),    Fig08(),
      Fig09(), Fig10(), Fig11(), Fig12(), Fig13(), Table1(), Ablations(),
  };
  return figures;
}

Plan MakePlan(std::span<const Figure* const> figures) {
  Plan plan;
  for (const Figure* figure : figures) {
    std::vector<size_t>& index = plan.index.emplace_back();
    for (const Point& point : figure->points) {
      const auto it = std::find(plan.points.begin(), plan.points.end(), point);
      index.push_back(static_cast<size_t>(it - plan.points.begin()));
      if (it == plan.points.end()) {
        plan.points.push_back(point);
      }
    }
  }
  return plan;
}

}  // namespace tcprx
