// End-to-end smoke tests of the full testbed: handshake, bulk transfer, delivery
// integrity, and the basic effect of the optimizations.

#include <gtest/gtest.h>

#include <optional>

#include "src/sim/testbed.h"
#include "src/tcp/send_stream.h"

namespace tcprx {
namespace {

TestbedConfig SmallConfig(bool optimized) {
  TestbedConfig config;
  config.stack = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                           : StackConfig::Baseline(SystemType::kNativeUp);
  config.num_nics = 1;
  return config;
}

TEST(IntegrationSmoke, BaselineStreamDeliversData) {
  Testbed bed(SmallConfig(false));
  Testbed::StreamOptions options;
  options.warmup = SimDuration::FromMillis(100);
  options.measure = SimDuration::FromMillis(200);
  const StreamResult result = bed.RunStream(options);
  EXPECT_GT(result.throughput_mbps, 100.0);
  EXPECT_GT(result.data_packets, 1000u);
  EXPECT_NEAR(result.avg_aggregation, 1.0, 0.01);
}

TEST(IntegrationSmoke, OptimizedStreamAggregates) {
  Testbed bed(SmallConfig(true));
  Testbed::StreamOptions options;
  options.warmup = SimDuration::FromMillis(100);
  options.measure = SimDuration::FromMillis(200);
  const StreamResult result = bed.RunStream(options);
  EXPECT_GT(result.throughput_mbps, 100.0);
  EXPECT_GT(result.avg_aggregation, 1.5) << "aggregation should kick in under load";
  EXPECT_LT(result.total_cycles_per_packet, 9000.0);
}

TEST(IntegrationSmoke, DeliveredBytesMatchSyntheticPattern) {
  // A paranoid receiver verifies every delivered byte against the sender's
  // deterministic pattern — with aggregation enabled.
  TestbedConfig config = SmallConfig(true);
  config.stack.fill_tcp_checksums = true;
  Testbed::TransferOptions transfer;
  transfer.bytes_per_flow = 2'000'000;
  transfer.deadline = SimTime::FromMillis(300);
  const PatternCheck delivered = Testbed(config).RunTransfer(transfer)[0];
  EXPECT_EQ(delivered.first_mismatch, std::nullopt);
  EXPECT_EQ(delivered.bytes, 2'000'000u);
}

TEST(IntegrationSmoke, TransferDeliversEveryFlowAtFourCoresWithRss) {
  TestbedConfig config = SmallConfig(true);
  config.stack.system = SystemType::kNativeSmp;
  config.smp.num_cores = 4;
  config.smp.rss.enabled = true;
  Testbed::TransferOptions transfer;
  transfer.flows = 8;
  transfer.bytes_per_flow = 300'000;
  transfer.deadline = SimTime::FromSeconds(5);
  const std::vector<PatternCheck> delivered = Testbed(config).RunTransfer(transfer);
  ASSERT_EQ(delivered.size(), 8u);
  for (size_t f = 0; f < delivered.size(); ++f) {
    EXPECT_EQ(delivered[f].first_mismatch, std::nullopt) << "flow " << f;
    EXPECT_EQ(delivered[f].bytes, 300'000u) << "flow " << f;
  }
}

TEST(IntegrationSmoke, LatencyWorkloadCompletesTransactions) {
  Testbed bed(SmallConfig(false));
  Testbed::LatencyOptions options;
  options.warmup = SimDuration::FromMillis(100);
  options.measure = SimDuration::FromMillis(300);
  const LatencyResult result = bed.RunLatency(options);
  EXPECT_GT(result.transactions_per_sec, 1000.0);
}

}  // namespace
}  // namespace tcprx
