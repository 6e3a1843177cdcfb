// tcprx_fuzz — differential fuzzer for the stack-equivalence invariants.
//
// Sweeps seeded scenarios (src/fuzz/scenario.h) through the differential runner
// (src/fuzz/differ.h). Each seed drives a baseline stack, an optimized stack and a
// limit-1 optimized stack over the same adversarial frame schedule and checks the
// DESIGN.md section 5 invariants; a slice of seeds additionally runs the full
// simulated testbed with probabilistic link faults and a 1-core vs N-core RSS pair.
// A sweep runs its seeds on one worker per hardware thread and prints in seed order:
// the output is that of a serial sweep, whatever the worker count.
//
//   tcprx_fuzz [--seeds=N] [--start-seed=N] [--testbed-every=N] [--verbose]
//   tcprx_fuzz --seed=N [--events=SPEC] [--pcap=FILE] [--testbed]
//   tcprx_fuzz --seeds=N --mutate=coalesce|noflush|payload   (self-test: expects failures)
//
// On the lowest failing seed the fault plan is shrunk (ddmin over the event list) and
// the tool prints a one-line repro — `tcprx_fuzz --seed=N --events=...`, with the
// run's --testbed flag and its --mutate name — plus the equivalent `tcprx_sim stream`
// command line for the testbed tier, optionally writes a pcap of the optimized run, and
// exits nonzero. --mutate takes, and the repro prints, the names of kMutationNames
// (src/fuzz/scenario.h), so every repro replays standalone.
//
// Examples:
//   tcprx_fuzz --seeds=50000                    # CI sweep
//   tcprx_fuzz --seed=1337 --verbose            # replay one scenario
//   tcprx_fuzz --seeds=50 --mutate=noflush      # prove the oracles catch a broken flush

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/fuzz/differ.h"
#include "src/fuzz/scenario.h"
#include "src/fuzz/shrink.h"
#include "tools/flag_parser.h"

namespace tcprx {
namespace fuzz {
namespace {

int Usage() {
  std::printf(
      "usage: tcprx_fuzz [flags]\n"
      "  sweep:  --seeds=N (default 100)  --start-seed=N (default 1); seeds run on one\n"
      "          worker per hardware thread and report in seed order\n"
      "          --testbed-every=N (run full-testbed tier every Nth seed; default 16,\n"
      "                             0 = direct-drive only)\n"
      "  replay: --seed=N  [--events=drop@3,reo@7x2,...]  [--testbed]\n"
      "  output: --pcap=FILE (optimized direct-drive capture)  --verbose  --quiet\n"
      "  self-test: --mutate=coalesce|noflush (break the optimized stack on purpose)\n"
      "             --mutate=payload (send one wrong payload byte to every stack);\n"
      "             the sweep then *must* fail\n");
  return 2;
}

// The line --verbose prints for each scenario.
void PrintScenario(const Scenario& scenario, const DiffOptions& options) {
  std::printf("  %s%s\n", scenario.Describe().c_str(), options.run_testbed ? " [testbed]" : "");
}

// Reports a failed scenario: its failures, then its fault plan shrunk and the repro,
// which names the options' mutation so that it replays standalone.
void ReportFailure(const Scenario& scenario, const DiffResult& result,
                   const DiffOptions& options) {
  std::printf("FAIL %s\n", scenario.Describe().c_str());
  for (const std::string& failure : result.failures) {
    std::printf("  %s\n", failure.c_str());
  }

  // Shrink with the same options minus pcap (candidates would clobber the capture).
  DiffOptions shrink_options = options;
  shrink_options.pcap_path.clear();
  const ShrinkResult shrunk = ShrinkFaults(
      scenario, [&](const Scenario& candidate) {
        return !RunScenario(candidate, shrink_options).ok();
      });
  if (shrunk.removed > 0) {
    std::printf("shrunk fault plan: %zu -> %zu events (%zu candidate runs)\n",
                scenario.faults.size(), shrunk.scenario.faults.size(), shrunk.runs);
  }

  const Scenario& minimal = shrunk.scenario;
  std::printf("repro: tcprx_fuzz --seed=%llu --events=%s%s%s%s\n",
              static_cast<unsigned long long>(minimal.seed),
              minimal.EventsSpec().empty() ? "\"\"" : minimal.EventsSpec().c_str(),
              options.run_testbed ? " --testbed" : "",
              options.mutation == Mutation::kNone ? "" : " --mutate=",
              MutationName(options.mutation));
  std::printf("testbed tier: %s\n", minimal.SimCommand().c_str());

  if (!options.pcap_path.empty()) {
    // Re-run the shrunk scenario once more to capture its optimized run.
    RunScenario(minimal, options);
    std::printf("pcap: %s\n", options.pcap_path.c_str());
  }
}

// Runs `seeds` seeds from `start` on one worker per hardware thread and reports them in
// seed order. The lowest failing seed is run again on this thread to report and shrink
// it, after the workers stop, so a failure prints what a serial sweep prints and leaves
// the same pcap. Returns true when every seed passed.
bool Sweep(uint64_t seeds, uint64_t start, uint64_t testbed_every, const DiffOptions& options,
           bool verbose, bool quiet) {
  const auto seed_options = [&](uint64_t i) {
    DiffOptions o = options;
    o.run_testbed = testbed_every != 0 && i % testbed_every == 0;
    return o;
  };
  enum Verdict : uint8_t { kPending, kPassed, kFailed };
  std::vector<std::atomic<uint8_t>> verdicts(seeds);
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> lowest_failure{seeds};  // workers claim no seed past it
  std::mutex failure_mutex;                       // orders the writes to lowest_failure
  std::vector<std::jthread> workers(std::max(1u, std::thread::hardware_concurrency()));
  for (std::jthread& worker : workers) {
    worker = std::jthread([&] {
      for (uint64_t i = next++; i < lowest_failure; i = next++) {
        DiffOptions o = seed_options(i);
        // Only the last seed writes the capture, as the last run of a serial sweep does.
        if (i + 1 != seeds) {
          o.pcap_path.clear();
        }
        const bool ok = RunScenario(Scenario::FromSeed(start + i), o).ok();
        if (!ok) {
          const std::lock_guard lock(failure_mutex);
          lowest_failure = std::min<uint64_t>(lowest_failure, i);
        }
        verdicts[i] = ok ? kPassed : kFailed;
        verdicts[i].notify_one();
      }
    });
  }

  size_t testbed_runs = 0;
  for (uint64_t i = 0; i < seeds; ++i) {
    verdicts[i].wait(kPending);
    const Scenario scenario = Scenario::FromSeed(start + i);
    const DiffOptions o = seed_options(i);
    if (verbose) {
      PrintScenario(scenario, o);
    }
    if (verdicts[i] == kFailed) {
      workers.clear();  // joins; no worker claims a seed past this one
      ReportFailure(scenario, RunScenario(scenario, o), o);
      return false;
    }
    testbed_runs += o.run_testbed ? 1 : 0;
    if (!quiet && !verbose && (i + 1) % 50 == 0) {
      std::printf("  ... %llu/%llu seeds ok\n", static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(seeds));
    }
  }
  if (!quiet) {
    std::printf("PASS %llu seeds (%zu with testbed tier), start-seed=%llu%s\n",
                static_cast<unsigned long long>(seeds), testbed_runs,
                static_cast<unsigned long long>(start),
                options.mutation == Mutation::kNone
                    ? ""
                    : " [mutated stack — a PASS here is a harness bug]");
  }
  return true;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (!flags.positional().empty() || flags.GetBool("help")) {
    return Usage();
  }

  DiffOptions options;
  const std::string mutate = flags.GetString("mutate", "");
  if (!mutate.empty()) {
    const std::optional<Mutation> mutation = ParseMutation(mutate);
    if (!mutation) {
      std::fprintf(stderr, "unknown --mutate value: %s\n", mutate.c_str());
      return Usage();
    }
    options.mutation = *mutation;
  }
  options.pcap_path = flags.GetString("pcap", "");

  const bool verbose = flags.GetBool("verbose");
  const bool quiet = flags.GetBool("quiet");

  if (flags.Has("seed")) {
    // Replay mode: one scenario, optionally with an overridden fault plan.
    Scenario scenario = Scenario::FromSeed(flags.GetUint("seed", 0));
    if (flags.Has("events")) {
      const std::string spec = flags.GetString("events", "");
      if (!Scenario::ParseEvents(spec == "\"\"" ? "" : spec, &scenario.faults)) {
        std::fprintf(stderr, "malformed --events spec: %s\n", spec.c_str());
        return Usage();
      }
    }
    options.run_testbed = flags.GetBool("testbed");
    for (const auto& unknown : flags.UnusedFlags()) {
      std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
      return Usage();
    }
    PrintScenario(scenario, options);
    const DiffResult result = RunScenario(scenario, options);
    if (!result.ok()) {
      ReportFailure(scenario, result, options);
      return 1;
    }
    std::printf("PASS %s\n", scenario.Describe().c_str());
    return 0;
  }

  const uint64_t seeds = flags.GetUint("seeds", 100);
  const uint64_t start = flags.GetUint("start-seed", 1);
  const uint64_t testbed_every = flags.GetUint("testbed-every", 16);
  for (const auto& unknown : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return Usage();
  }
  return Sweep(seeds, start, testbed_every, options, verbose, quiet) ? 0 : 1;
}

}  // namespace
}  // namespace fuzz
}  // namespace tcprx

int main(int argc, char** argv) { return tcprx::fuzz::Main(argc, argv); }
