// tcprx_perfbench — the repository's benchmark.
//
//   tcprx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats one workload for `seconds` of host time, checks every repetition's
// outputs, and prints as its last line one JSON object: correct, attempted, failed
// and the metrics. --trace 0 reports the end-to-end metrics from untraced runs;
// --trace 1 alternates untraced and traced runs and reports the per-layer metrics.
// A line before it names the tcprx_sim command that must print the same simulated
// results (perfbench/run.py runs it).

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/host_clock.h"
#include "perfbench/metrics.h"
#include "perfbench/runner.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr size_t kMinReps = 3;
// setup_s is the fastest of the set-up samples, each the mean of kSetupBuilds Testbed
// constructions and destructions: kSetupSamples before the runs and one after each run.
constexpr size_t kSetupSamples = 10;
constexpr size_t kSetupBuilds = 50;

// Moves the process to each CPU it may run on in turn. On a shared host a CPU slows
// for seconds at a time while other tenants use its core; spreading the
// repetitions over every CPU lets the fastest times find a quiet one.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
      return;
    }
    for (size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus_.push_back(cpu);
      }
    }
  }

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<size_t> cpus_;
  size_t next_ = 0;
};

int Usage() {
  std::fprintf(stderr,
               "usage: tcprx_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const std::string& text, uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

std::string JsonStringList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + items[i] + "\"";
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      ok = have_seed = ParseUint(value, seed);
    } else if (flag == "--seconds") {
      ok = have_seconds = ParseUint(value, seconds);
    } else if (flag == "--trace") {
      ok = ParseUint(value, trace) && trace <= 1;
    } else {
      ok = false;
    }
    if (!ok) {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || seconds == 0) {
    return Usage();
  }
  const std::optional<Workload> workload = MakeWorkload(workload_name, seed);
  if (!workload) {
    return Usage();
  }
  const Workload& w = *workload;

  std::vector<double> setup_samples;
  for (size_t i = 0; i < kSetupSamples; ++i) {
    setup_samples.push_back(MeanSetupCpuSeconds(w, kSetupBuilds));
  }

  CpuRotation rotation;
  std::vector<UntracedRep> untraced;
  std::vector<TracedRep> traced;
  uint64_t failed = 0;
  auto record = [&failed](const std::vector<std::string>& failures, const char* kind) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "check failed (%s run): %s\n", kind, f.c_str());
    }
    if (!failures.empty()) {
      ++failed;
    }
  };

  const int64_t deadline = WallNanos() + static_cast<int64_t>(seconds) * 1'000'000'000;
  while (WallNanos() < deadline || untraced.size() < kMinReps) {
    rotation.Next();
    UntracedRep rep = RunUntraced(w);
    if (!untraced.empty() && Fingerprint(rep.sim) != Fingerprint(untraced.front().sim)) {
      rep.failures.push_back("simulated results differ from the first run of this seed");
    }
    setup_samples.push_back(MeanSetupCpuSeconds(w, kSetupBuilds));
    record(rep.failures, "untraced");
    untraced.push_back(std::move(rep));

    if (trace == 1) {
      TracedRep t = RunTraced(w);
      if (Fingerprint(t.sim) != Fingerprint(untraced.front().sim)) {
        t.failures.push_back("traced simulated results differ from the untraced run");
      }
      if (!traced.empty() && t.counts.Fingerprint() != traced.front().counts.Fingerprint()) {
        t.failures.push_back("layer counts differ from the first traced run");
      }
      record(t.failures, "traced");
      traced.push_back(std::move(t));
    }
  }

  const std::vector<Metric> metrics = trace == 1
                                          ? PerLayerMetrics(w, traced, untraced)
                                          : EndToEndMetrics(w, untraced, setup_samples);
  std::fprintf(stderr, "%s: seed %llu, %zu untraced and %zu traced runs, %llu failed\n",
               w.name.c_str(), static_cast<unsigned long long>(seed), untraced.size(),
               traced.size(), static_cast<unsigned long long>(failed));
  std::fprintf(stderr, "untraced run_cpu_s:");
  for (const UntracedRep& rep : untraced) {
    std::fprintf(stderr, " %.4f", rep.run_cpu_s);
  }
  std::fprintf(stderr, "\n");
  if (!w.reference_args.empty()) {
    std::printf("{\"reference\": {\"args\": %s, \"expect\": %s}}\n",
                JsonStringList(w.reference_args).c_str(),
                ReferenceExpectJson(w, untraced.front().sim).c_str());
  }
  const uint64_t attempted = untraced.size() + traced.size();
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
