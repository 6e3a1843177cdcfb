// Self-tests for the differential fuzz harness (src/fuzz/).
//
// Three layers:
//  1. A pinned-seed regression corpus: these scenarios must stay green. Seed 4 is
//     the scenario whose shrunk form (a single duplicated frame chained onto by
//     later segments) exposed the per-fragment duplicate-ACK replay bug in
//     TcpConnection::DeliverPayload; it is pinned so the fix stays fixed.
//  2. Mutation self-tests: deliberately breaking the optimized stack (dropping the
//     per-fragment ACK metadata; skipping the work-conserving idle flush) must be
//     caught by the oracles within the CI smoke-sweep budget. A fuzzer that cannot
//     detect a planted bug is worse than no fuzzer — it certifies broken code.
//  3. Unit tests for the scenario serialization round-trip and the ddmin shrinker.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fuzz/differ.h"
#include "src/fuzz/scenario.h"
#include "src/fuzz/shrink.h"

namespace tcprx {
namespace fuzz {
namespace {

// ---------------------------------------------------------------------------
// Pinned regression corpus
// ---------------------------------------------------------------------------

TEST(FuzzCorpus, PinnedSeedsPass) {
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    const Scenario scenario = Scenario::FromSeed(seed);
    const DiffResult result = RunScenario(scenario);
    for (const std::string& failure : result.failures) {
      ADD_FAILURE() << scenario.Describe() << ": " << failure;
    }
  }
}

// The duplicate-fragment replay regression. dup@24 duplicates a full-MSS frame;
// the copy starts a fresh aggregate that subsequent in-order segments chain onto,
// so the optimized stack sees an aggregate whose head fragment is entirely
// duplicate data. Before the fix, the replay loop skipped that fragment silently,
// while the baseline emitted an immediate duplicate ACK and reset its delayed-ACK
// parity — diverging every later ACK value on the flow.
TEST(FuzzCorpus, DuplicateHeadFragmentReplaysImmediateAck) {
  Scenario scenario = Scenario::FromSeed(4);
  ASSERT_EQ(scenario.mss, 8948u);
  ASSERT_TRUE(Scenario::ParseEvents("dup@24", &scenario.faults));
  const DiffResult result = RunScenario(scenario);
  for (const std::string& failure : result.failures) {
    ADD_FAILURE() << failure;
  }
}

TEST(FuzzCorpus, TestbedTierPinnedSeedsPass) {
  for (const uint64_t seed : {8u, 16u, 24u}) {
    const Scenario scenario = Scenario::FromSeed(seed);
    DiffOptions options;
    options.run_testbed = true;
    const DiffResult result = RunScenario(scenario, options);
    for (const std::string& failure : result.failures) {
      ADD_FAILURE() << scenario.Describe() << ": " << failure;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation self-tests: planted bugs must be caught
// ---------------------------------------------------------------------------

// Runs seeds 1..budget under `options` and returns the failures of the first
// failing seed ("" when every seed passes).
std::vector<std::string> FirstFailure(const DiffOptions& options, uint64_t budget) {
  for (uint64_t seed = 1; seed <= budget; ++seed) {
    const DiffResult result = RunScenario(Scenario::FromSeed(seed), options);
    if (!result.ok()) {
      return result.failures;
    }
  }
  return {};
}

bool AnyFailureMentions(const std::vector<std::string>& failures, const std::string& s) {
  for (const std::string& failure : failures) {
    if (failure.find(s) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(FuzzMutation, CoalescedFragmentAcksAreCaught) {
  DiffOptions options;
  options.mutate_coalesce_acks = true;
  const std::vector<std::string> failures = FirstFailure(options, 10);
  ASSERT_FALSE(failures.empty())
      << "dropping per-fragment ACK metadata survived 10 seeds undetected";
  // The break surfaces through ACK-granularity oracles: the cwnd trace (piggybacked
  // ACKs collapse into one) or the per-flow ACK trace.
  EXPECT_TRUE(AnyFailureMentions(failures, "cwnd-trace") ||
              AnyFailureMentions(failures, "ack-trace"))
      << "unexpected oracle: " << failures.front();
}

TEST(FuzzMutation, SkippedIdleFlushIsCaught) {
  DiffOptions options;
  options.mutate_skip_idle_flush = true;
  const std::vector<std::string> failures = FirstFailure(options, 10);
  ASSERT_FALSE(failures.empty())
      << "breaking the work-conserving flush survived 10 seeds undetected";
  EXPECT_TRUE(AnyFailureMentions(failures, "work-conservation") ||
              AnyFailureMentions(failures, "cwnd-trace") ||
              AnyFailureMentions(failures, "ack-trace") ||
              AnyFailureMentions(failures, "limit1"))
      << "unexpected oracle: " << failures.front();
}

TEST(FuzzMutation, WrongPayloadByteIsCaught) {
  DiffOptions options;
  options.mutate_payload = true;
  const std::vector<std::string> failures = FirstFailure(options, 10);
  ASSERT_FALSE(failures.empty()) << "a wrong payload byte survived 10 seeds undetected";
  // Every stack delivers the same wrong byte, so only the pattern oracle sees it.
  EXPECT_TRUE(AnyFailureMentions(failures, "stream-pattern"))
      << "unexpected oracle: " << failures.front();
  EXPECT_TRUE(AnyFailureMentions(failures, "first mismatch offset " +
                                               std::to_string(kWrongPayloadByteOffset)))
      << failures.front();
}

// ---------------------------------------------------------------------------
// Scenario serialization
// ---------------------------------------------------------------------------

TEST(FuzzScenario, EventsSpecRoundTrips) {
  Scenario s;
  s.faults = {
      {FaultEvent::Kind::kDrop, 12, 0},
      {FaultEvent::Kind::kReorder, 5, 2},
      {FaultEvent::Kind::kDuplicate, 40, 0},
      {FaultEvent::Kind::kCorrupt, 7, 0},
      {FaultEvent::Kind::kBurstDrop, 30, 3},
  };
  const std::string spec = s.EventsSpec();
  EXPECT_EQ(spec, "drop@12,reo@5x2,dup@40,corr@7,burst@30x3");

  std::vector<FaultEvent> parsed;
  ASSERT_TRUE(Scenario::ParseEvents(spec, &parsed));
  ASSERT_EQ(parsed.size(), s.faults.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, s.faults[i].kind) << i;
    EXPECT_EQ(parsed[i].index, s.faults[i].index) << i;
    EXPECT_EQ(parsed[i].arg, s.faults[i].arg) << i;
  }
}

TEST(FuzzScenario, ParseEventsRejectsMalformedSpecs) {
  std::vector<FaultEvent> out;
  EXPECT_TRUE(Scenario::ParseEvents("", &out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(Scenario::ParseEvents("drop", &out));
  EXPECT_FALSE(Scenario::ParseEvents("nope@3", &out));
  EXPECT_FALSE(Scenario::ParseEvents("drop@", &out));
  EXPECT_FALSE(Scenario::ParseEvents("reo@3x", &out));
  EXPECT_FALSE(Scenario::ParseEvents("drop@3z", &out));
}

TEST(FuzzScenario, FromSeedIsDeterministic) {
  for (const uint64_t seed : {1ull, 77ull, 123456789ull}) {
    const Scenario a = Scenario::FromSeed(seed);
    const Scenario b = Scenario::FromSeed(seed);
    EXPECT_EQ(a.Describe(), b.Describe());
    EXPECT_EQ(a.SimCommand(), b.SimCommand());
  }
}

TEST(FuzzScenario, TestbedTierConfigsAreValid) {
  // Every generated testbed-tier bed passes the testbed's boundary, with the
  // scenario's MSS and flow count as a stream would carry them.
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    const Scenario s = Scenario::FromSeed(seed);
    Testbed::StreamOptions options;
    options.client_mss = s.mss;
    options.connections_per_nic = s.flows;
    const TestbedConfig beds[] = {CompletenessConfig(s, false), CompletenessConfig(s, true),
                                  RssConfig(s, 1), RssConfig(s, s.cores)};
    for (const TestbedConfig& config : beds) {
      ASSERT_EQ(ConfigErrors(config, options), std::vector<std::string>{}) << s.Describe();
    }
  }
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

TEST(FuzzShrink, ReducesToSingleCulpritEvent) {
  Scenario s = Scenario::FromSeed(99);
  s.faults = {
      {FaultEvent::Kind::kDrop, 3, 0},       {FaultEvent::Kind::kReorder, 9, 2},
      {FaultEvent::Kind::kDuplicate, 24, 0}, {FaultEvent::Kind::kDrop, 31, 0},
      {FaultEvent::Kind::kCorrupt, 44, 0},   {FaultEvent::Kind::kBurstDrop, 50, 3},
  };
  // Synthetic failure predicate: the bug reproduces whenever a duplicate event is
  // present anywhere in the plan.
  const ShrinkResult result = ShrinkFaults(s, [](const Scenario& candidate) {
    for (const FaultEvent& e : candidate.faults) {
      if (e.kind == FaultEvent::Kind::kDuplicate) {
        return true;
      }
    }
    return false;
  });
  ASSERT_EQ(result.scenario.faults.size(), 1u);
  EXPECT_EQ(result.scenario.faults[0].kind, FaultEvent::Kind::kDuplicate);
  EXPECT_EQ(result.scenario.faults[0].index, 24u);
  EXPECT_EQ(result.removed, 5u);
  EXPECT_GT(result.runs, 0u);
}

TEST(FuzzShrink, EmptyPlanIsReturnedUnchanged) {
  Scenario s = Scenario::FromSeed(7);
  s.faults.clear();
  const ShrinkResult result = ShrinkFaults(s, [](const Scenario&) { return true; });
  EXPECT_TRUE(result.scenario.faults.empty());
  EXPECT_EQ(result.runs, 0u);
}

TEST(FuzzShrink, KeepsFullPlanWhenEveryEventIsNeeded) {
  Scenario s = Scenario::FromSeed(7);
  s.faults = {
      {FaultEvent::Kind::kDrop, 3, 0},
      {FaultEvent::Kind::kDuplicate, 24, 0},
  };
  // Fails only with the complete plan.
  const ShrinkResult result = ShrinkFaults(
      s, [](const Scenario& candidate) { return candidate.faults.size() == 2; });
  EXPECT_EQ(result.scenario.faults.size(), 2u);
  EXPECT_EQ(result.removed, 0u);
}

}  // namespace
}  // namespace fuzz
}  // namespace tcprx
