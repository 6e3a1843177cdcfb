#include "src/cpu/cycle_account.h"

namespace tcprx {

const char* CostCategoryName(CostCategory c) {
  switch (c) {
    case CostCategory::kPerByte:
      return "per-byte";
    case CostCategory::kRx:
      return "rx";
    case CostCategory::kTx:
      return "tx";
    case CostCategory::kBuffer:
      return "buffer";
    case CostCategory::kNonProto:
      return "non-proto";
    case CostCategory::kDriver:
      return "driver";
    case CostCategory::kAggr:
      return "aggr";
    case CostCategory::kNetback:
      return "netback";
    case CostCategory::kNetfront:
      return "netfront";
    case CostCategory::kXen:
      return "xen";
    case CostCategory::kMisc:
      return "misc";
  }
  return "?";
}

CategoryCycles FoldCategories(const RoutineCycles& routines) {
  CategoryCycles sum{};
  for (size_t r = 0; r < kRoutineCount; ++r) {
    sum[static_cast<size_t>(kRoutineTable[r].category)] += routines[r];
  }
  return sum;
}

uint64_t CycleAccount::Get(CostCategory category) const {
  return FoldCategories(routines_)[static_cast<size_t>(category)];
}

uint64_t CycleAccount::Total() const {
  uint64_t total = 0;
  for (const uint64_t cycles : routines_) {
    total += cycles;
  }
  return total;
}

}  // namespace tcprx
