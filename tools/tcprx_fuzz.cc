// tcprx_fuzz — differential fuzzer for the stack-equivalence invariants.
//
// Sweeps seeded scenarios (src/fuzz/scenario.h) through the differential runner
// (src/fuzz/differ.h). Each seed drives a baseline stack, an optimized stack and a
// limit-1 optimized stack over the same adversarial frame schedule and checks the
// DESIGN.md section 5 invariants; a slice of seeds additionally runs the full
// simulated testbed with probabilistic link faults and a 1-core vs N-core RSS pair.
//
//   tcprx_fuzz [--seeds=N] [--start-seed=N] [--testbed-every=N] [--verbose]
//   tcprx_fuzz --seed=N [--events=SPEC] [--pcap=FILE] [--testbed]
//   tcprx_fuzz --seeds=N --mutate=coalesce|noflush|payload   (self-test: expects failures)
//
// On the first failing seed the fault plan is shrunk (ddmin over the event list) and
// the tool prints a one-line repro — `tcprx_fuzz --seed=N --events=...` — plus the
// equivalent `tcprx_sim stream` command line for the testbed tier, optionally writes
// a pcap of the optimized run, and exits nonzero.
//
// Examples:
//   tcprx_fuzz --seeds=2000                     # CI smoke sweep
//   tcprx_fuzz --seed=1337 --verbose            # replay one scenario
//   tcprx_fuzz --seeds=50 --mutate=noflush      # prove the oracles catch a broken flush

#include <cstdio>
#include <string>

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
      "  sweep:  --seeds=N (default 100)  --start-seed=N (default 1)\n"
      "          --testbed-every=N (run full-testbed tier every Nth seed; default 16,\n"
      "                             0 = direct-drive only)\n"
      "  replay: --seed=N  [--events=drop@3,reo@7x2,...]  [--testbed]\n"
      "  output: --pcap=FILE (optimized direct-drive capture)  --verbose  --quiet\n"
      "  self-test: --mutate=coalesce|noflush (break the optimized stack on purpose)\n"
      "             --mutate=payload (send one wrong payload byte to every stack);\n"
      "             the sweep then *must* fail\n");
  return 2;
}

struct FuzzStats {
  size_t run = 0;
  size_t testbed_runs = 0;
};

// Runs one scenario; on failure shrinks the fault plan and prints the repro.
// Returns true when the scenario passed.
bool RunOne(const Scenario& scenario, const DiffOptions& options, bool verbose,
            FuzzStats* stats) {
  ++stats->run;
  if (options.run_testbed) {
    ++stats->testbed_runs;
  }
  if (verbose) {
    std::printf("  %s%s\n", scenario.Describe().c_str(),
                options.run_testbed ? " [testbed]" : "");
  }
  DiffResult result = RunScenario(scenario, options);
  if (result.ok()) {
    return true;
  }

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
  std::printf("repro: tcprx_fuzz --seed=%llu --events=%s%s\n",
              static_cast<unsigned long long>(minimal.seed),
              minimal.EventsSpec().empty() ? "\"\"" : minimal.EventsSpec().c_str(),
              options.run_testbed ? " --testbed" : "");
  std::printf("testbed tier: %s\n", minimal.SimCommand().c_str());

  if (!options.pcap_path.empty()) {
    // Re-run the shrunk scenario once more to capture its optimized run.
    DiffOptions capture = options;
    capture.pcap_path = options.pcap_path;
    RunScenario(minimal, capture);
    std::printf("pcap: %s\n", options.pcap_path.c_str());
  }
  return false;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (!flags.positional().empty() || flags.GetBool("help")) {
    return Usage();
  }

  DiffOptions options;
  const std::string mutate = flags.GetString("mutate", "");
  if (mutate == "coalesce") {
    options.mutate_coalesce_acks = true;
  } else if (mutate == "noflush") {
    options.mutate_skip_idle_flush = true;
  } else if (mutate == "payload") {
    options.mutate_payload = true;
  } else if (!mutate.empty()) {
    std::fprintf(stderr, "unknown --mutate value: %s\n", mutate.c_str());
    return Usage();
  }
  options.pcap_path = flags.GetString("pcap", "");

  const bool verbose = flags.GetBool("verbose");
  const bool quiet = flags.GetBool("quiet");
  FuzzStats stats;

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
    const bool ok = RunOne(scenario, options, /*verbose=*/true, &stats);
    if (ok) {
      std::printf("PASS %s\n", scenario.Describe().c_str());
    }
    return ok ? 0 : 1;
  }

  const uint64_t seeds = flags.GetUint("seeds", 100);
  const uint64_t start = flags.GetUint("start-seed", 1);
  const uint64_t testbed_every = flags.GetUint("testbed-every", 16);
  for (const auto& unknown : flags.UnusedFlags()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return Usage();
  }

  for (uint64_t i = 0; i < seeds; ++i) {
    const uint64_t seed = start + i;
    const Scenario scenario = Scenario::FromSeed(seed);
    DiffOptions seed_options = options;
    seed_options.run_testbed = testbed_every != 0 && i % testbed_every == 0;
    if (!RunOne(scenario, seed_options, verbose, &stats)) {
      return 1;
    }
    if (!quiet && !verbose && (i + 1) % 50 == 0) {
      std::printf("  ... %llu/%llu seeds ok\n", static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(seeds));
    }
  }
  if (!quiet) {
    std::printf("PASS %llu seeds (%zu with testbed tier), start-seed=%llu%s\n",
                static_cast<unsigned long long>(seeds), stats.testbed_runs,
                static_cast<unsigned long long>(start),
                mutate.empty() ? "" : " [mutated stack — a PASS here is a harness bug]");
  }
  return 0;
}

}  // namespace
}  // namespace fuzz
}  // namespace tcprx

int main(int argc, char** argv) { return tcprx::fuzz::Main(argc, argv); }
