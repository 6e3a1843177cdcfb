// Tests for the observability and tooling layer: frame formatting, the packet
// tracer, the CLI flag parser, and testbed-level features (tracer attachment, link
// corruption end-to-end, hardware LRO, jumbo MSS).

#include <gtest/gtest.h>

#include <optional>

#include "src/sim/testbed.h"
#include "src/sim/trace.h"
#include "src/tcp/send_stream.h"
#include "tests/test_util.h"
#include "tools/flag_parser.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

// ---------------------------------------------------------------------------
// FormatTcpFrame
// ---------------------------------------------------------------------------

TEST(Trace, FormatsDataFrame) {
  FrameOptions options;
  options.seq = 1000;
  options.ack = 777;
  options.flags = kTcpAck | kTcpPsh;
  const std::string line = FormatTcpFrame(MakeFrame(options, 1448));
  EXPECT_NE(line.find("10.0.0.2:10000 > 10.0.0.1:5001"), std::string::npos) << line;
  EXPECT_NE(line.find("Flags [P.]"), std::string::npos) << line;
  EXPECT_NE(line.find("seq 1000:2448"), std::string::npos) << line;
  EXPECT_NE(line.find("ack 777"), std::string::npos) << line;
  EXPECT_NE(line.find("len 1448"), std::string::npos) << line;
  EXPECT_NE(line.find("ts 100/50"), std::string::npos) << line;
}

TEST(Trace, FormatsSynWithMss) {
  FrameOptions options;
  options.flags = kTcpSyn;
  options.extra_options = {kTcpOptMss, 4, 0x05, 0xa8};  // 1448
  const std::string line = FormatTcpFrame(MakeFrame(options, 0));
  EXPECT_NE(line.find("Flags [S]"), std::string::npos) << line;
  EXPECT_NE(line.find("mss 1448"), std::string::npos) << line;
}

TEST(Trace, FormatsSackBlocks) {
  FrameOptions options;
  TcpOptionBytes sack;
  const SackBlock blocks[] = {{5000, 6448}};
  AppendSackOption(blocks, sack);
  options.extra_options.assign(sack.begin(), sack.end());
  const std::string line = FormatTcpFrame(MakeFrame(options, 0));
  EXPECT_NE(line.find("sack 5000:6448"), std::string::npos) << line;
}

TEST(Trace, FormatsGarbageAsNonTcp) {
  const std::vector<uint8_t> garbage(32, 0xee);
  EXPECT_NE(FormatTcpFrame(garbage).find("non-TCP"), std::string::npos);
}

TEST(Trace, TracerCapsLines) {
  EventLoop loop;
  PacketTracer tracer(loop, /*max_lines=*/3);
  const auto frame = MakeFrame(FrameOptions{}, 10);
  for (int i = 0; i < 10; ++i) {
    tracer.Record(">", frame);
  }
  EXPECT_EQ(tracer.lines().size(), 3u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.suppressed(), 7u);
}

TEST(Trace, TestbedTapSeesHandshake) {
  TestbedConfig config;
  config.stack = StackConfig::Baseline(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 1;
  Testbed bed(config);
  PacketTracer tracer(bed.loop());
  bed.AttachTracer(tracer);

  bed.stack().Listen(5001, [](TcpConnection&) {});
  TcpConnection* client =
      bed.remote(0).CreateConnection(bed.ClientConnectionConfig(0, 10000, 5001));
  client->Connect();
  bed.loop().RunUntil(SimTime::FromMillis(5));
  ASSERT_GE(tracer.lines().size(), 3u);
  EXPECT_NE(tracer.lines()[0].find("Flags [S]"), std::string::npos);
  EXPECT_NE(tracer.lines()[1].find("Flags [S.]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlagParser
// ---------------------------------------------------------------------------

TEST(FlagParser, ParsesPositionalAndFlags) {
  const char* argv[] = {"tool", "stream", "--nics=3", "--optimized", "--drop=0.5"};
  FlagParser flags(5, const_cast<char**>(argv));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "stream");
  EXPECT_EQ(flags.GetUint("nics", 5), 3u);
  EXPECT_TRUE(flags.GetBool("optimized"));
  EXPECT_DOUBLE_EQ(flags.GetDouble("drop", 0), 0.5);
}

TEST(FlagParser, DefaultsWhenAbsent) {
  const char* argv[] = {"tool"};
  FlagParser flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetUint("nics", 5), 5u);
  EXPECT_FALSE(flags.GetBool("optimized"));
  EXPECT_EQ(flags.GetString("system", "up"), "up");
}

TEST(FlagParser, ExplicitFalse) {
  const char* argv[] = {"tool", "--thing=false", "--other=0"};
  FlagParser flags(3, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("thing", true));
  EXPECT_FALSE(flags.GetBool("other", true));
}

TEST(FlagParser, TracksUnusedFlags) {
  const char* argv[] = {"tool", "--used=1", "--unused=2"};
  FlagParser flags(3, const_cast<char**>(argv));
  flags.GetUint("used", 0);
  const auto unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

// ---------------------------------------------------------------------------
// Testbed-level feature coverage
// ---------------------------------------------------------------------------

TEST(TestbedFeatures, CorruptionIsDetectedAndRecovered) {
  // Frames corrupted in flight fail the NIC's checksum verification; the stack's
  // software path drops them, TCP retransmits, and the stream stays byte-exact.
  TestbedConfig config;
  config.stack = StackConfig::Optimized(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = true;  // real checksums so corruption is visible
  config.num_nics = 1;
  LinkConfig dirty;
  dirty.corrupt_probability = 0.01;
  dirty.fault_seed = 99;
  config.client_to_server_link = dirty;
  Testbed bed(config);
  Testbed::TransferOptions transfer;
  transfer.bytes_per_flow = 2'000'000;
  transfer.deadline = SimTime::FromSeconds(15);
  const PatternCheck delivered = bed.RunTransfer(transfer)[0];

  EXPECT_EQ(delivered.first_mismatch, std::nullopt);
  EXPECT_EQ(delivered.bytes, 2'000'000u);
  EXPECT_GT(bed.nic(0).stats().rx_csum_bad, 0u) << "corruption was actually injected";
  EXPECT_GT(bed.remote(0).connections()[0]->segments_retransmitted(), 0u);
}

TEST(TestbedFeatures, HardwareLroAmortizesDriver) {
  TestbedConfig sw_config;
  sw_config.stack = StackConfig::Optimized(SystemType::kNativeUp);
  sw_config.stack.ack_offload = false;
  sw_config.stack.fill_tcp_checksums = false;
  sw_config.num_nics = 1;

  TestbedConfig hw_config = sw_config;
  hw_config.stack.hardware_lro = true;

  Testbed sw(sw_config);
  Testbed hw(hw_config);
  Testbed::StreamOptions options;
  options.warmup = SimDuration::FromMillis(100);
  options.measure = SimDuration::FromMillis(300);
  const StreamResult sw_result = sw.RunStream(options);
  const StreamResult hw_result = hw.RunStream(options);

  // LRO pays no aggr cycles and amortizes the driver per host packet.
  EXPECT_EQ(hw_result.cycles_per_packet[static_cast<size_t>(CostCategory::kAggr)], 0);
  EXPECT_LT(hw_result.cycles_per_packet[static_cast<size_t>(CostCategory::kDriver)],
            sw_result.cycles_per_packet[static_cast<size_t>(CostCategory::kDriver)] / 2);
  EXPECT_GT(sw_result.cycles_per_packet[static_cast<size_t>(CostCategory::kAggr)], 500);
  // Both still deliver the stream.
  EXPECT_GT(hw_result.throughput_mbps, 500);
}

TEST(TestbedFeatures, JumboMssMovesMorePayloadPerPacket) {
  TestbedConfig config;
  config.stack = StackConfig::Baseline(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 1;
  Testbed bed(config);
  Testbed::StreamOptions options;
  options.warmup = SimDuration::FromMillis(100);
  options.measure = SimDuration::FromMillis(300);
  options.client_mss = 8948;
  const StreamResult result = bed.RunStream(options);
  EXPECT_GT(result.throughput_mbps, 300);
  // Payload per data packet is jumbo-sized.
  const double bytes_per_packet = result.throughput_mbps * 1e6 / 8 *
                                  options.measure.ToSecondsF() /
                                  static_cast<double>(result.data_packets);
  EXPECT_GT(bytes_per_packet, 8000);
}

TEST(TestbedFeatures, PerDirectionLinkOverrideOnlyAffectsDataPath) {
  TestbedConfig config;
  config.stack = StackConfig::Baseline(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 1;
  LinkConfig lossy;
  lossy.drop_probability = 0.05;
  config.client_to_server_link = lossy;
  Testbed bed(config);
  Testbed::StreamOptions options;
  options.warmup = SimDuration::FromMillis(200);
  options.measure = SimDuration::FromMillis(500);
  const StreamResult result = bed.RunStream(options);
  EXPECT_GT(result.retransmits, 0u);  // data path lost frames
  // At 5% loss with a LAN RTT, Reno without SACK is RTO-bound: single-digit Mb/s is
  // the textbook outcome (Padhye et al.); the property under test is that the
  // transfer keeps making progress, not that it is fast.
  EXPECT_GT(result.throughput_mbps, 0.2);
}

}  // namespace
}  // namespace tcprx
