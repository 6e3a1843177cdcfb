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
  Testbed bed(config);

  PatternCheck delivered;
  bed.stack().Listen(5001, [&](TcpConnection& conn) {
    bed.stack().SetConnectionDataHandler(
        conn, [&](std::span<const uint8_t> data) { delivered.Feed(data); });
  });

  TcpConnection* client = bed.remote(0).CreateConnection(
      bed.ClientConnectionConfig(0, 10000, 5001));
  client->Connect();
  client->SendSynthetic(2'000'000);

  bed.loop().RunUntil(SimTime::FromMillis(300));
  EXPECT_EQ(delivered.first_mismatch, std::nullopt);
  EXPECT_EQ(delivered.bytes, 2'000'000u);
}

TEST(IntegrationSmoke, LatencyWorkloadCompletesTransactions) {
  Testbed bed(SmallConfig(false));
  Testbed::LatencyOptions options;
  options.warmup = SimDuration::FromMillis(100);
  options.measure = SimDuration::FromMillis(300);
  const LatencyResult result = bed.RunLatency(options);
  EXPECT_GT(result.transactions_per_sec, 1000.0);
}

TEST(IntegrationSmoke, GracefulCloseReachesClosedStates) {
  Testbed bed(SmallConfig(false));
  TcpConnection* server_conn = nullptr;
  bed.stack().Listen(5001, [&](TcpConnection& conn) { server_conn = &conn; });

  TcpConnection* client = bed.remote(0).CreateConnection(
      bed.ClientConnectionConfig(0, 10000, 5001));
  client->Connect();
  const std::vector<uint8_t> data(10000, 0xaa);
  client->Send(data);
  client->Close();

  bed.loop().RunUntil(SimTime::FromMillis(200));
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(server_conn->bytes_received(), 10000u);
  // Server saw the FIN; close from the server side too and drain.
  server_conn->Close();
  bed.loop().RunUntil(SimTime::FromMillis(2500));
  EXPECT_EQ(client->state(), TcpState::kClosed);
  EXPECT_EQ(server_conn->state(), TcpState::kClosed);
}

}  // namespace
}  // namespace tcprx
