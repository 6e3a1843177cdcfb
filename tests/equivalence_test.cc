// The flagship correctness properties of the paper's optimizations (DESIGN.md
// section 5), as hand-picked inputs to the differential fuzzer's oracles
// (src/fuzz/differ.h): each equivalence is a Scenario with an empty fault plan, run
// through RunScenario like any generated one.
//
//  1. ACK-sequence equivalence (sections 3.4.2 + 4.2): same ACKs with and without
//     aggregation and offload, for any batching pattern.
//  2. Congestion-window equivalence (section 3.4.1): a sender whose inbound
//     (piggybacked) ACKs pass through an aggregating receiver sees the exact same
//     cwnd trace as without aggregation.
//  3. Aggregation-limit-1 equivalence (section 5.5): limit 1 produces byte-identical
//     output to the baseline stack.
//  4. Stream transparency under loss/reordering/duplication (section 3.6), at full
//     testbed scale with real recovery dynamics.
//
// The exact counts behind them (ACKs per segment, dup ACKs per fragment, aggregates
// per batch) run on the fuzzer's direct-drive harness.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/fuzz/differ.h"
#include "src/fuzz/direct_harness.h"
#include "src/sim/testbed.h"

namespace tcprx {
namespace fuzz {
namespace {

constexpr uint32_t kMss = 1448;

Scenario Pinned(size_t limit, bool offload, size_t batch, size_t frames) {
  Scenario scenario;
  scenario.aggregation_limit = limit;
  scenario.ack_offload = offload;
  scenario.batch = batch;
  scenario.frames = frames;
  return scenario;
}

void ExpectPasses(const Scenario& scenario) {
  for (const std::string& failure : RunScenario(scenario).failures) {
    ADD_FAILURE() << scenario.Describe() << ": " << failure;
  }
}

// `count` full segments of flow 0 from stream offset `offset`.
std::vector<WireFrame> FullSegments(uint32_t offset, size_t count, uint32_t ts_value) {
  std::vector<WireFrame> frames;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t seq = kFirstDataSeq + offset + static_cast<uint32_t>(i) * kMss;
    frames.push_back(DataFrame(0, seq, 0, kMss, ts_value));
  }
  return frames;
}

class AckEquivalenceTest : public ::testing::TestWithParam<std::tuple<size_t, bool, size_t>> {
};

TEST_P(AckEquivalenceTest, AckSequencesMatchBaseline) {
  const auto [limit, offload, batch] = GetParam();
  ExpectPasses(Pinned(limit, offload, batch, 60));
}

INSTANTIATE_TEST_SUITE_P(
    LimitsOffloadBatches, AckEquivalenceTest,
    ::testing::Values(std::make_tuple(1u, false, 1u), std::make_tuple(4u, false, 4u),
                      std::make_tuple(20u, false, 20u), std::make_tuple(20u, true, 20u),
                      std::make_tuple(20u, true, 7u), std::make_tuple(8u, true, 32u),
                      std::make_tuple(20u, true, 60u)),
    [](const auto& name_info) {
      return "limit" + std::to_string(std::get<0>(name_info.param)) +
             (std::get<1>(name_info.param) ? "_offload" : "_nooffload") + "_batch" +
             std::to_string(std::get<2>(name_info.param));
    });

TEST(Equivalence, LimitOneIsByteIdenticalToBaseline) {
  ExpectPasses(Pinned(1, true, 5, 40));
}

TEST(Equivalence, CwndTraceIdenticalUnderAggregation) {
  // The server sends bulk data; the client's data segments carry piggybacked ACKs for
  // it. With aggregation those segments coalesce, and only the per-fragment ACK replay
  // of section 3.4.1 keeps the server's congestion window evolution identical. 28
  // batches of frames make 30 rounds.
  for (const size_t batch : {4u, 10u, 20u}) {
    Scenario scenario = Pinned(20, true, batch, 28 * batch);
    scenario.bidirectional = true;
    ExpectPasses(scenario);
  }
}

TEST(Equivalence, SixtyFullSegmentsDrawThirtyAcks) {
  // Delayed ACKs: one ACK per second full segment, however the segments aggregate.
  for (const bool optimized : {false, true}) {
    DirectHarness harness(optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                                    : StackConfig::Baseline(SystemType::kNativeUp),
                          1);
    harness.HandshakeAll();
    harness.Drive(FullSegments(0, 60, 500), optimized ? 20 : 1);
    EXPECT_EQ(harness.SentAcksPerFlow()[0].size(), 30u)
        << (optimized ? "optimized" : "baseline");
  }
}

TEST(Equivalence, DuplicateAcksPreservedPerFragmentForFastRetransmit) {
  // An out-of-order aggregated packet must produce one dup ACK per constituent
  // fragment (so the sender's 3-dup-ack threshold fires as without aggregation).
  DirectHarness optimized(StackConfig::Optimized(SystemType::kNativeUp), 1);
  optimized.HandshakeAll();

  // First 2 in-order frames, then skip one MSS and feed 4 in-sequence frames beyond
  // the hole in one batch (timestamps not older than the in-order data, or PAWS
  // would drop them).
  optimized.Drive(FullSegments(0, 2, 500), 2);
  const size_t acks_before = optimized.SentAcksPerFlow()[0].size();
  optimized.Drive(FullSegments(3 * kMss, 4, 600), 4);
  const std::vector<uint32_t> acks = optimized.SentAcksPerFlow()[0];
  ASSERT_EQ(acks.size() - acks_before, 4u);  // one dup ACK per fragment
  for (size_t i = acks_before; i < acks.size(); ++i) {
    EXPECT_EQ(acks[i], kFirstDataSeq + 2 * kMss);  // all pointing at the hole
  }
}

TEST(Equivalence, StreamTransparentUnderLossReorderDuplication) {
  // Full-testbed property: with a lossy, reordering, duplicating data path, the
  // application byte stream is still exact — with and without the optimizations.
  for (const bool optimized : {false, true}) {
    TestbedConfig config;
    config.stack = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                             : StackConfig::Baseline(SystemType::kNativeUp);
    config.stack.fill_tcp_checksums = true;  // strict end-to-end checking
    config.num_nics = 1;
    LinkConfig lossy;
    lossy.drop_probability = 0.02;
    lossy.reorder_probability = 0.02;
    lossy.duplicate_probability = 0.01;
    lossy.fault_seed = 1234;
    config.client_to_server_link = lossy;

    Testbed bed(config);
    Testbed::TransferOptions transfer;
    transfer.bytes_per_flow = 3'000'000;
    const PatternCheck delivered = bed.RunTransfer(transfer)[0];

    EXPECT_EQ(delivered.first_mismatch, std::nullopt) << (optimized ? "optimized" : "baseline");
    EXPECT_EQ(delivered.bytes, transfer.bytes_per_flow)
        << (optimized ? "optimized" : "baseline");
    EXPECT_GT(bed.remote(0).connections()[0]->segments_retransmitted(), 0u)
        << "loss was actually exercised";
  }
}

TEST(Equivalence, AggregationStatsShowRealCoalescingInBatches) {
  DirectHarness optimized(StackConfig::Optimized(SystemType::kNativeUp), 1);
  optimized.HandshakeAll();
  optimized.Drive(FullSegments(0, 100, 500), 20);
  const Aggregator* aggregator = optimized.stack().aggregator();
  ASSERT_NE(aggregator, nullptr);
  EXPECT_EQ(aggregator->stats().aggregates_delivered, 5u);
  EXPECT_EQ(optimized.stack().account().counters().net_data_packets, 100u);
  // 5 aggregates plus the two handshake passthrough packets (SYN, final ACK).
  EXPECT_EQ(optimized.stack().account().counters().host_packets, 7u);
}

}  // namespace
}  // namespace fuzz
}  // namespace tcprx
