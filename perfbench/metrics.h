// Turns repetitions into the benchmark's named metrics and its result line.
//
// End-to-end metrics come from untraced repetitions; per-layer metrics from traced
// ones. Host times come from the fastest repetition: on a shared host interference
// only adds time, and slow phases lasting seconds move a median by more than half.
// Simulated values and counts come from one repetition, since every repetition of a
// seed must reproduce them exactly.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/runner.h"
#include "perfbench/workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Peak resident set size of this process, in MB.
double PeakRssMb();

std::vector<Metric> EndToEndMetrics(const Workload& w, const std::vector<UntracedRep>& reps,
                                    const std::vector<double>& setup_samples);

std::vector<Metric> PerLayerMetrics(const Workload& w, const std::vector<TracedRep>& traced,
                                    const std::vector<UntracedRep>& untraced);

// The one-line JSON result: correct, attempted, failed, metrics.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
