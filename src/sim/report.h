// Text-report helpers shared by the figure printers (bench/figures.cc) and tcprx_sim:
// fixed-width tables of the per-category cycles/packet breakdowns and throughput
// summaries, formatted to read side by side with the paper's figures.

#ifndef SRC_SIM_REPORT_H_
#define SRC_SIM_REPORT_H_

#include <span>
#include <string>
#include <vector>

#include "src/cpu/cycle_account.h"
#include "src/sim/testbed.h"

namespace tcprx {

// Categories in the order the paper's native-Linux figures use.
std::span<const CostCategory> NativeFigureCategories();
// Categories in the order of the Xen figure (Figure 6 / 10).
std::span<const CostCategory> XenFigureCategories();

// Prints a breakdown table: one row per category, one column per labelled result.
void PrintBreakdownTable(const std::string& title,
                         std::span<const CostCategory> categories,
                         const std::vector<std::string>& labels,
                         const std::vector<const StreamResult*>& results);

// Prints the one-line throughput/utilization summary for a result.
void PrintStreamSummary(const std::string& label, const StreamResult& result);

// Prints per-core utilizations, load imbalance, and inter-core traffic. No-op in
// single-core mode, so existing figure outputs are unchanged.
void PrintPerCoreSummary(const StreamResult& result);

// Percentage share of a category group within a result's total.
double CategoryShare(const StreamResult& result, std::span<const CostCategory> group);

// OProfile-style flat profile of a result's measurement window, summed over all
// cores: routines sorted by cycles, with percentage of the window's total. Rows below
// 0.5% are folded into "(other)".
void PrintFlatProfile(const StreamResult& result);

}  // namespace tcprx

#endif  // SRC_SIM_REPORT_H_
