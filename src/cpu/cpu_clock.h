// CPU time as a simulated resource.
//
// A receive core is the contended resource in every experiment: throughput saturates
// when the CPU does. CpuClock converts charged cycles into simulated busy time,
// serializing the work scheduled on one core. In single-core mode the SMP cost
// difference is modelled through the lock model (lock-prefixed atomics); the multi-core
// subsystem in src/smp/ instantiates one CpuClock per core (CpuTopology) and adds
// inter-core cache-line-transfer costs on top of the same lock model.

#ifndef SRC_CPU_CPU_CLOCK_H_
#define SRC_CPU_CPU_CLOCK_H_

#include <cstdint>
#include <vector>

#include "src/util/sim_time.h"

namespace tcprx {

class CpuClock {
 public:
  explicit CpuClock(uint64_t hz) : hz_(hz) {}

  // Reserves `cycles` of CPU starting no earlier than `now`; returns the completion
  // time. Work requested while the CPU is busy queues behind it.
  SimTime Run(SimTime now, uint64_t cycles) {
    const SimTime start = now > busy_until_ ? now : busy_until_;
    const uint64_t nanos = CyclesToNanos(cycles);
    if (!regions_.empty() && regions_.back().end_ns == start.nanos()) {
      regions_.back().end_ns += nanos;  // extend the current contiguous busy region
    } else {
      regions_.push_back({start.nanos(), start.nanos() + nanos});
    }
    busy_until_ = start + SimTime::FromNanos(nanos);
    busy_cycles_ += cycles;
    return busy_until_;
  }

  // Time at which previously reserved work completes.
  SimTime busy_until() const { return busy_until_; }

  bool IdleAt(SimTime t) const { return busy_until_ <= t; }

  uint64_t busy_cycles() const { return busy_cycles_; }

  // Busy nanoseconds overlapping [start, end): only the portion of each busy region
  // that falls inside the window counts, so work spanning a window edge is split
  // correctly and a single serialized core can never report more than 100%.
  uint64_t BusyNanosIn(SimTime start, SimTime end) const {
    uint64_t busy = 0;
    for (const Region& r : regions_) {
      const uint64_t lo = r.start_ns > start.nanos() ? r.start_ns : start.nanos();
      const uint64_t hi = r.end_ns < end.nanos() ? r.end_ns : end.nanos();
      if (hi > lo) {
        busy += hi - lo;
      }
    }
    return busy;
  }

  // Fraction of [start, end) the CPU spent busy. Exact (no clamp): over-subscription
  // would be an accounting bug and must be visible, not silently hidden.
  double Utilization(SimTime start, SimTime end) const {
    if (end.nanos() <= start.nanos()) {
      return 0.0;
    }
    const uint64_t window_ns = end.nanos() - start.nanos();
    return static_cast<double>(BusyNanosIn(start, end)) / static_cast<double>(window_ns);
  }

  void ResetStats() {
    busy_cycles_ = 0;
    regions_.clear();
  }

 private:
  // Maximal contiguous busy intervals, in order. Consecutive Run() calls that queue
  // back-to-back merge into one region, so the vector grows only on idle->busy
  // transitions (one per interrupt batch, not one per packet).
  struct Region {
    uint64_t start_ns;
    uint64_t end_ns;
  };

  uint64_t CyclesToNanos(uint64_t cycles) const {
    // round up so work never takes zero time
    return (cycles * 1'000'000'000ull + hz_ - 1) / hz_;
  }

  uint64_t hz_;
  SimTime busy_until_;
  uint64_t busy_cycles_ = 0;
  std::vector<Region> regions_;
};

}  // namespace tcprx

#endif  // SRC_CPU_CPU_CLOCK_H_
