// The benchmark's three workloads and the simulated outcome of one run.
//
//   stream_up_opt           UP costs, optimized stack, 5 x 1 GbE, 1 flow per NIC.
//   stream_smp4_base_lossy  SMP costs, baseline stack, 4 cores with RSS,
//                           5 x 10 GbE, 4 flows per NIC, 0.1% seeded data loss.
//   rr_xen_opt              Xen costs, optimized stack, 1 NIC, 1-byte closed-loop RR.
//
// Every workload takes its seed through LinkConfig::fault_seed; only the lossy one
// draws from it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/testbed.h"

namespace perfbench {

struct Workload {
  std::string name;
  bool stream = true;  // false: request/response
  bool lossy = false;  // seeded loss on the client -> server direction
  tcprx::TestbedConfig config;
  tcprx::Testbed::StreamOptions stream_options;
  tcprx::Testbed::LatencyOptions latency_options;
  // tcprx_sim arguments that simulate the same configuration and window; empty when
  // the command line cannot express it (10 GbE links).
  std::vector<std::string> reference_args;

  tcprx::SimTime window_start() const {
    return stream ? stream_options.warmup : latency_options.warmup;
  }
  tcprx::SimTime window_end() const {
    return stream ? stream_options.warmup + stream_options.measure
                  : latency_options.warmup + latency_options.measure;
  }
};

const std::vector<std::string>& WorkloadNames();

// nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// The simulated outcome of one run; only the half matching the workload is set.
struct SimResult {
  tcprx::StreamResult stream;
  tcprx::LatencyResult latency;
};

// Every field, doubles in hex-float, so equal fingerprints mean byte-identical results.
std::string Fingerprint(const SimResult& r);

// The values tcprx_sim --json prints for the same run, formatted as it formats them,
// as a JSON object.
std::string ReferenceExpectJson(const Workload& w, const SimResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
