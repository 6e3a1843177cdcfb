// Differential execution of one fuzz Scenario.
//
// Two tiers, the one implementation of the DESIGN.md section 5 checks. Their inputs
// are generated from a seed or, in tests/equivalence_test.cc, written by hand:
//
//  * Direct drive (src/fuzz/direct_harness.h): the same post-fault frame schedule is
//    fed, frame by frame, to a baseline stack, an optimized stack, and an optimized
//    stack with aggregation limit 1. Timing is fully controlled (identical Idle()
//    flush points, identical event-loop advancement), so the invariants are checked
//    exactly: every run accepted every flow, per-flow delivered streams, per-flow ACK
//    traces, congestion-window traces (bidirectional scenarios), limit-1
//    byte-identical output, the work-conserving flush, and aggregation
//    conservation/bypass ordering via the stack's host-packet tap.
//
//  * Testbed (optional, slower): Testbed::RunTransfer on the full simulator with
//    probabilistic link faults checks end-to-end stream completeness
//    baseline-vs-optimized, and a 1-core vs N-core RSS pair checks every flow's
//    delivered stream under flow steering. Timing differs legitimately here, so only
//    the stream oracles apply.
//
// Every delivered stream, in both tiers, is the sender's synthetic pattern, checked
// chunk by chunk by a PatternCheck (src/tcp/send_stream.h).
//
// Every failure is reported as a one-line string naming the oracle; RunScenario
// never asserts, so the shrinker can re-run candidate scenarios cheaply.

#ifndef SRC_FUZZ_DIFFER_H_
#define SRC_FUZZ_DIFFER_H_

#include <string>
#include <vector>

#include "src/fuzz/scenario.h"
#include "src/sim/testbed.h"

namespace tcprx {
namespace fuzz {

// The stream offset of the wrong byte DiffOptions::mutate_payload plants.
inline constexpr uint32_t kWrongPayloadByteOffset = 0;

struct DiffOptions {
  // Mutations applied to the *optimized* stack only — used by the harness
  // self-tests to prove the oracles catch a broken invariant.
  bool mutate_coalesce_acks = false;
  bool mutate_skip_idle_flush = false;
  // A sender fault instead, seen by every stack alike: the direct-drive frames carry
  // one wrong payload byte, at stream offset kWrongPayloadByteOffset of each flow,
  // under a valid checksum. Only the pattern oracle can catch it.
  bool mutate_payload = false;
  // Also run the full-testbed tier (slower; the driver runs it on a subset of
  // seeds).
  bool run_testbed = false;
  // When non-empty, capture the optimized direct-drive run (frames fed and frames
  // transmitted) into this pcap file.
  std::string pcap_path;
};

struct DiffResult {
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
};

DiffResult RunScenario(const Scenario& scenario, const DiffOptions& options = {});

// The full-testbed tier's beds for `scenario`: the lossy single-NIC bed of the
// completeness pair, and the clean RSS bed of the 1-core vs N-core pair.
TestbedConfig CompletenessConfig(const Scenario& scenario, bool optimized);
TestbedConfig RssConfig(const Scenario& scenario, size_t cores);

}  // namespace fuzz
}  // namespace tcprx

#endif  // SRC_FUZZ_DIFFER_H_
