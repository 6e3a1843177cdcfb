#include "src/smp/cpu_topology.h"

#include "src/util/logging.h"

namespace tcprx {

CpuTopology::CpuTopology(size_t num_cores, uint64_t hz) {
  TCPRX_CHECK(num_cores >= 1);
  cores_.reserve(num_cores);
  for (size_t i = 0; i < num_cores; ++i) {
    cores_.push_back(std::make_unique<CpuClock>(hz));
  }
}

uint64_t CpuTopology::TotalBusyCycles() const {
  uint64_t total = 0;
  for (const auto& core : cores_) {
    total += core->busy_cycles();
  }
  return total;
}

std::vector<double> CpuTopology::Utilizations(SimTime start, SimTime end) const {
  std::vector<double> utils;
  utils.reserve(cores_.size());
  for (const auto& core : cores_) {
    utils.push_back(core->Utilization(start, end));
  }
  return utils;
}

double LoadImbalance(std::span<const double> utilizations) {
  if (utilizations.empty()) {
    return 0.0;
  }
  double max = 0.0;
  double sum = 0.0;
  for (const double u : utilizations) {
    sum += u;
    if (u > max) {
      max = u;
    }
  }
  const double mean = sum / static_cast<double>(utilizations.size());
  if (mean <= 0.0) {
    return 0.0;
  }
  return max / mean - 1.0;
}

}  // namespace tcprx
