#include "src/sim/report.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace tcprx {

namespace {
constexpr CostCategory kNativeOrder[] = {
    CostCategory::kPerByte, CostCategory::kRx,     CostCategory::kTx,
    CostCategory::kBuffer,  CostCategory::kNonProto, CostCategory::kDriver,
    CostCategory::kMisc,    CostCategory::kAggr,
};
constexpr CostCategory kXenOrder[] = {
    CostCategory::kPerByte,  CostCategory::kNonProto, CostCategory::kNetback,
    CostCategory::kNetfront, CostCategory::kRx,       CostCategory::kTx,
    CostCategory::kBuffer,   CostCategory::kDriver,   CostCategory::kAggr,
    CostCategory::kXen,      CostCategory::kMisc,
};
}  // namespace

std::span<const CostCategory> NativeFigureCategories() { return kNativeOrder; }
std::span<const CostCategory> XenFigureCategories() { return kXenOrder; }

void PrintBreakdownTable(const std::string& title,
                         std::span<const CostCategory> categories,
                         const std::vector<std::string>& labels,
                         const std::vector<const StreamResult*>& results) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-12s", "category");
  for (const auto& label : labels) {
    std::printf(" %14s", label.c_str());
  }
  std::printf("\n");
  for (const CostCategory cat : categories) {
    std::printf("%-12s", CostCategoryName(cat));
    for (const StreamResult* r : results) {
      std::printf(" %14.0f", r->cycles_per_packet[static_cast<size_t>(cat)]);
    }
    std::printf("\n");
  }
  std::printf("%-12s", "TOTAL");
  for (const StreamResult* r : results) {
    std::printf(" %14.0f", r->total_cycles_per_packet);
  }
  std::printf("\n");
}

void PrintStreamSummary(const std::string& label, const StreamResult& result) {
  std::printf(
      "%-22s throughput %7.0f Mb/s  cpu %5.1f%%  cpu-scaled %7.0f Mb/s  "
      "cycles/pkt %6.0f  aggr %5.2f  drops %llu  rtx %llu\n",
      label.c_str(), result.throughput_mbps, result.cpu_utilization * 100.0,
      result.cpu_scaled_mbps, result.total_cycles_per_packet, result.avg_aggregation,
      static_cast<unsigned long long>(result.nic_drops),
      static_cast<unsigned long long>(result.retransmits));
}

void PrintPerCoreSummary(const StreamResult& result) {
  if (result.per_core_utilization.size() <= 1) {
    return;
  }
  std::printf("%-22s per-core cpu", "");
  for (const double u : result.per_core_utilization) {
    std::printf(" %5.1f%%", u * 100.0);
  }
  std::printf("  imbalance %5.1f%%  xfers %llu  misdirected %llu  backlog-drops %llu\n",
              result.load_imbalance * 100.0,
              static_cast<unsigned long long>(result.intercore_transfers),
              static_cast<unsigned long long>(result.misdirected_packets),
              static_cast<unsigned long long>(result.backlog_drops));
}

void PrintFlatProfile(const StreamResult& result) {
  constexpr double kMinPercent = 0.5;
  uint64_t window_total = 0;
  std::vector<size_t> rows;
  for (size_t r = 0; r < kRoutineCount; ++r) {
    window_total += result.routine_cycles[r];
    if (result.routine_cycles[r] > 0) {
      rows.push_back(r);
    }
  }
  if (window_total == 0) {
    std::printf("(no samples)\n");
    return;
  }
  // Most cycles first; equal counts in name order, so the report is deterministic.
  std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    if (result.routine_cycles[a] != result.routine_cycles[b]) {
      return result.routine_cycles[a] > result.routine_cycles[b];
    }
    return kRoutineTable[a].name < kRoutineTable[b].name;
  });
  const double total = static_cast<double>(window_total);
  std::printf("%-32s %14s %8s\n", "routine", "cycles", "%");
  uint64_t shown = 0;
  for (const size_t r : rows) {
    const uint64_t cycles = result.routine_cycles[r];
    const double pct = static_cast<double>(cycles) / total * 100.0;
    if (pct < kMinPercent) {
      continue;
    }
    shown += cycles;
    const std::string_view name = kRoutineTable[r].name;
    std::printf("%-32.*s %14llu %7.2f%%\n", static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(cycles), pct);
  }
  const uint64_t rest = window_total - shown;
  if (rest > 0) {
    std::printf("%-32s %14llu %7.2f%%\n", "(other)", static_cast<unsigned long long>(rest),
                static_cast<double>(rest) / total * 100.0);
  }
}

double CategoryShare(const StreamResult& result, std::span<const CostCategory> group) {
  if (result.total_cycles_per_packet <= 0) {
    return 0;
  }
  double sum = 0;
  for (const CostCategory cat : group) {
    sum += result.cycles_per_packet[static_cast<size_t>(cat)];
  }
  return sum / result.total_cycles_per_packet * 100.0;
}

}  // namespace tcprx
