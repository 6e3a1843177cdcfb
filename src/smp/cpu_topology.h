// Multi-core CPU: N per-core CpuClocks plus the utilization/imbalance arithmetic the
// scaling experiments report.
//
// Each core serializes its own work (one CpuClock); cores run in parallel simply by
// having independent busy timelines. The cost of *sharing* between cores is not here —
// see InterCoreModel — so a perfectly partitioned workload scales linearly and every
// deviation from linear is attributable to a charged mechanism.

#ifndef SRC_SMP_CPU_TOPOLOGY_H_
#define SRC_SMP_CPU_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/cpu/cpu_clock.h"

namespace tcprx {

class CpuTopology {
 public:
  CpuTopology(size_t num_cores, uint64_t hz);

  size_t num_cores() const { return cores_.size(); }
  CpuClock& core(size_t i) { return *cores_[i]; }
  const CpuClock& core(size_t i) const { return *cores_[i]; }

  // Sum of busy cycles across all cores (the "total CPU" a breakdown normalizes by).
  uint64_t TotalBusyCycles() const;

  // Exact per-core utilization of [start, end) (busy regions clipped to the window).
  std::vector<double> Utilizations(SimTime start, SimTime end) const;

 private:
  std::vector<std::unique_ptr<CpuClock>> cores_;
};

// Load-imbalance metric over per-core utilizations: max/mean - 1. Zero when the load
// is perfectly balanced; 1.0 means the busiest core carries twice the average — the
// headroom RSS rebalancing would reclaim.
double LoadImbalance(std::span<const double> utilizations);

}  // namespace tcprx

#endif  // SRC_SMP_CPU_TOPOLOGY_H_
