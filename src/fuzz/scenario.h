// Seeded scenario generation for the differential fuzzer (tools/tcprx_fuzz).
//
// A Scenario is a complete, deterministic description of one adversarial run:
// transfer shape (MSS, flow count, frame count, batch size), stack knobs
// (aggregation limit, ACK offload, delayed ACKs), a discrete fault plan for the
// direct-drive tier (drop/duplicate/reorder/corrupt/burst-loss events at specific
// frame indices), and probabilistic link-fault rates for the full-testbed tier.
// Everything derives from the 64-bit seed, so a failure report is reproducible from
// `--seed=` alone; the fault plan is additionally serializable (`EventsSpec`) so a
// shrunk plan can override the generated one via `--events=`.
// The fault kinds and the self-tests' mutations each have one table of the names a
// repro line prints and the tool parses: scenario.cc's and kMutationNames.

#ifndef SRC_FUZZ_SCENARIO_H_
#define SRC_FUZZ_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tcprx {
namespace fuzz {

struct FaultEvent {
  enum class Kind : uint8_t { kDrop, kDuplicate, kReorder, kCorrupt, kBurstDrop };
  Kind kind = Kind::kDrop;
  // Position in the generated data-frame schedule the event applies to. Events are
  // applied in list order; indices are taken modulo the current schedule length, so
  // a shrunk plan stays valid as earlier events remove frames.
  uint32_t index = 0;
  // kReorder: how many positions the frame is delayed. kBurstDrop: run length.
  uint32_t arg = 0;
};

const char* FaultKindName(FaultEvent::Kind kind);

// A bug the fuzzer's self-tests plant on purpose, each breaking one invariant that the
// oracles must catch (`tcprx_fuzz --mutate=NAME`).
enum class Mutation : uint8_t {
  kNone,
  // Planted by DirectHarness in the optimized direct-drive run: TCP sees each host
  // packet as its head segment alone, losing the per-fragment ACK replay (section 3.4).
  kCoalesceAcks,
  kSkipIdleFlush,  // likewise: Idle() skips the work-conserving flush (section 3.5)
  // Planted by the differ in every direct-drive run's frames: one wrong payload byte per
  // flow (kWrongPayloadByteOffset) under a valid checksum; only the pattern oracle sees it.
  kWrongPayload,
};

// The --mutate name of every planted bug; kNone has none.
inline constexpr std::pair<Mutation, const char*> kMutationNames[] = {
    {Mutation::kCoalesceAcks, "coalesce"},
    {Mutation::kSkipIdleFlush, "noflush"},
    {Mutation::kWrongPayload, "payload"},
};

// The --mutate name of `mutation`; "" for kNone.
const char* MutationName(Mutation mutation);
// The mutation named `name` in kMutationNames; nullopt for any other name.
std::optional<Mutation> ParseMutation(std::string_view name);

struct Scenario {
  uint64_t seed = 0;

  // Transfer shape.
  uint32_t mss = 1448;
  size_t flows = 1;        // concurrent client connections (distinct source ports)
  size_t frames = 60;      // data frames fed across all flows
  size_t batch = 8;        // frames per driver batch between work-conserving flushes
  bool bidirectional = false;  // cwnd-trace scenario: server sends, clients piggyback

  // Stack knobs under test.
  size_t aggregation_limit = 20;
  bool ack_offload = true;
  bool delayed_acks = true;

  // Direct-drive fault plan.
  std::vector<FaultEvent> faults;

  // Full-testbed tier: probabilistic link faults and the RSS core count.
  size_t cores = 1;
  double drop_p = 0;
  double duplicate_p = 0;
  double corrupt_p = 0;
  double reorder_p = 0;
  uint64_t burst_period = 0;
  uint64_t burst_length = 0;

  // Deterministically expands `seed` into a full scenario.
  static Scenario FromSeed(uint64_t seed);

  // One-line human summary.
  std::string Describe() const;

  // Serializes the fault plan, e.g. "drop@12,reo@5x2,burst@30x3" ("" when empty).
  std::string EventsSpec() const;
  // Parses an EventsSpec string; returns false on malformed input.
  static bool ParseEvents(const std::string& spec, std::vector<FaultEvent>* out);

  // One-line `tcprx_sim stream` command reproducing this scenario's testbed-tier
  // configuration (probabilistic faults, seed, stack knobs).
  std::string SimCommand() const;
};

}  // namespace fuzz
}  // namespace tcprx

#endif  // SRC_FUZZ_SCENARIO_H_
