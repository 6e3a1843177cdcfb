// Host-side clocks for the benchmark: the only place it reads the machine's time.
//
// The simulation never sees these values; they measure what the simulator costs on
// the host. Keeping every clock read here keeps the determinism rule of
// tcprx_check at zero findings over the benchmark's own sources.

#ifndef PERFBENCH_HOST_CLOCK_H_
#define PERFBENCH_HOST_CLOCK_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace perfbench {

// Monotonic wall time in nanoseconds.
inline int64_t WallNanos() {
  // tcprx-check: allow(determinism) -- host-time measurement, never read by the simulation
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count();
}

// User + system CPU time of this process in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  // tcprx-check: allow(determinism) -- host-time measurement, never read by the simulation
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_CLOCK_H_
