// Sequence-number wraparound: the classic TCP trap. The connection works in a 64-bit
// extended sequence space internally, so transfers that cross the 32-bit boundary —
// and aggregates that straddle it — must be seamless.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/core/aggregator.h"
#include "src/core/template_ack.h"
#include "src/sim/testbed.h"
#include "src/tcp/send_stream.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;
using testutil::ToPacket;

TEST(SequenceWrap, BulkTransferCrossesWrapCleanly) {
  // Client ISS a few segments below 2^32: a modest transfer crosses the wrap.
  TestbedConfig config;
  config.stack = StackConfig::Optimized(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = true;
  config.num_nics = 1;
  Testbed bed(config);

  PatternCheck delivered;
  bed.stack().Listen(5001, [&](TcpConnection& conn) {
    conn.set_on_data([&](std::span<const uint8_t> data) { delivered.Feed(data); });
  });

  TcpConnectionConfig client_config = bed.ClientConnectionConfig(0, 10000, 5001);
  client_config.initial_seq = 0xffffffffu - 3 * 1448;  // wrap after ~3 segments
  TcpConnection* client = bed.remote(0).CreateConnection(client_config);
  client->Connect();
  constexpr uint64_t kTotal = 2'000'000;  // well past the wrap
  client->SendSynthetic(kTotal);
  bed.loop().RunUntil(SimTime::FromMillis(300));

  EXPECT_EQ(delivered.first_mismatch, std::nullopt);
  EXPECT_EQ(delivered.bytes, kTotal);
  // The extended sequence space really crossed 2^32.
  EXPECT_GT(client->snd_una_ext(), uint64_t{1} << 32);
}

TEST(SequenceWrap, WrapWithLossRecovers) {
  TestbedConfig config;
  config.stack = StackConfig::Optimized(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = true;
  config.num_nics = 1;
  LinkConfig lossy;
  lossy.drop_probability = 0.01;
  lossy.fault_seed = 5;
  config.client_to_server_link = lossy;
  Testbed bed(config);

  PatternCheck delivered;
  bed.stack().Listen(5001, [&](TcpConnection& conn) {
    conn.set_on_data([&](std::span<const uint8_t> data) { delivered.Feed(data); });
  });
  TcpConnectionConfig client_config = bed.ClientConnectionConfig(0, 10000, 5001);
  client_config.initial_seq = 0xfffffff0u;  // wraps almost immediately
  TcpConnection* client = bed.remote(0).CreateConnection(client_config);
  client->Connect();
  constexpr uint64_t kTotal = 1'000'000;
  client->SendSynthetic(kTotal);
  bed.loop().RunUntil(SimTime::FromSeconds(20));

  EXPECT_EQ(delivered.first_mismatch, std::nullopt);
  EXPECT_EQ(delivered.bytes, kTotal);
  EXPECT_GT(client->segments_retransmitted(), 0u);
}

TEST(SequenceWrap, AggregatorChainsAcrossWrap) {
  PacketPool pool;
  Aggregator::HostPackets delivered;
  Aggregator aggregator(8);

  // Four in-sequence segments whose wire sequence numbers straddle 2^32.
  uint32_t seq = 0xffffffffu - 2 * 1448 + 1;
  for (int i = 0; i < 4; ++i) {
    FrameOptions options;
    options.seq = seq;
    ASSERT_EQ(aggregator.Push(ToPacket(pool, MakeFrame(options, 1448)), delivered), nullptr);
    seq += 1448;  // wraps naturally in uint32 arithmetic
  }
  aggregator.FlushAll(delivered);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0]->SegmentCount(), 4u);
  EXPECT_EQ(delivered[0]->PayloadSize(), 4u * 1448);
  // Fragment metadata preserves the wrapped wire sequence numbers.
  EXPECT_EQ(delivered[0]->fragment_info[0].seq, 0xffffffffu - 2 * 1448 + 1);
  EXPECT_EQ(delivered[0]->fragment_info[3].seq,
            static_cast<uint32_t>(0xffffffffu - 2 * 1448 + 1 + 3 * 1448));
}

TEST(SequenceWrap, AckNumbersWrapInTemplates) {
  // A batch of ACKs whose ack numbers straddle the wrap expand correctly.
  FrameOptions options;
  options.seq = 5000;
  options.ack = 0xfffffa00u;
  const uint32_t extra_acks[] = {0xfffffa00u + 2896, 0xfffffa00u + 5792};  // wraps
  TcpOutputItem item;
  item.frame = MakeFrame(options, 0);
  item.extra_acks = extra_acks;
  std::vector<std::vector<uint8_t>> frames;
  ExpandTemplateAck(std::move(item),
                    [&frames](std::vector<uint8_t> frame) { frames.push_back(std::move(frame)); });
  ASSERT_EQ(frames.size(), 3u);
  auto last = ParseTcpFrame(frames[2]);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->tcp.ack, static_cast<uint32_t>(0xfffffa00u + 5792));
  // Checksums stay valid across the wrap rewrite.
  const size_t seg_len = last->ip.total_length - last->ip.HeaderSize();
  EXPECT_TRUE(VerifyTcpChecksum(last->ip.src, last->ip.dst,
                                std::span<const uint8_t>(frames[2]).subspan(last->tcp_offset,
                                                                            seg_len)));
}

}  // namespace
}  // namespace tcprx
