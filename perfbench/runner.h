// One repetition of a workload, untraced (through Testbed, as tcprx_sim runs it) or
// traced (through TracedBed), with its outputs checked.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/span_tracer.h"
#include "perfbench/traced_bed.h"
#include "perfbench/workloads.h"

namespace perfbench {

// Mean host CPU time to construct and destroy the workload's Testbed (hosts, NICs,
// links, remotes), over `builds` of them timed together: one construction alone is
// too short for the CPU clock to time.
double MeanSetupCpuSeconds(const Workload& w, size_t builds);

// An untraced run is timed in this many equal slices of simulated time.
constexpr size_t kRunSlices = 200;

struct UntracedRep {
  double run_cpu_s = 0;  // warm-up plus window
  // Host CPU time of each slice; every repetition of a seed does the same work in a
  // slice, so slices can be compared across repetitions.
  std::vector<double> slice_cpu_s;
  SimResult sim;
  double cpu_utilization = 0;  // simulated, over the window, all cores
  std::vector<std::string> failures;
};

UntracedRep RunUntraced(const Workload& w);

struct TracedRep {
  double run_cpu_s = 0;
  SimResult sim;
  LayerCounts counts;
  std::vector<double> core_utilization;
  std::array<SpanTracer::Totals, kLayerCount> spans{};
  int64_t root_ns = 0;
  std::vector<std::string> failures;
};

TracedRep RunTraced(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
