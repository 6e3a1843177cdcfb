// Acknowledgment Offload tests: template construction by the TCP layer, driver-side
// expansion, and the byte-equivalence property of section 4.2 (successive ACKs differ
// only in the ack number and the checksum, so expansion reproduces them exactly).

#include <gtest/gtest.h>

#include "src/core/aggregator.h"
#include "src/core/template_ack.h"
#include "src/util/byte_order.h"
#include "src/wire/frame.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::ClientIp;
using testutil::ClientMac;
using testutil::FrameOptions;
using testutil::MakeFrame;
using testutil::ServerIp;
using testutil::ServerMac;
using testutil::ToPacket;

std::vector<uint8_t> MakeAckFrame(uint32_t ack, bool fill_checksum = true) {
  FrameOptions options;
  options.seq = 5000;
  options.ack = ack;
  options.fill_checksum = fill_checksum;
  return MakeFrame(options, 0);
}

// A template ACK as the TCP layer hands it down: the first ACK fully built plus the
// ack numbers of the rest of the run.
TcpOutputItem MakeTemplate(uint32_t first_ack, std::vector<uint32_t> extras,
                           bool fill_checksum = true) {
  TcpOutputItem item;
  item.frame = MakeAckFrame(first_ack, fill_checksum);
  item.extra_acks = std::move(extras);
  return item;
}

// The frames the driver puts on the wire for `item`, in order.
std::vector<std::vector<uint8_t>> Expand(TcpOutputItem item) {
  std::vector<std::vector<uint8_t>> frames;
  ExpandTemplateAck(std::move(item),
                    [&frames](std::vector<uint8_t> frame) { frames.push_back(std::move(frame)); });
  return frames;
}

TEST(TemplateAck, BuildCarriesExtraAcks) {
  // The TCP layer builds the template: an aggregated packet of four segments owes two
  // ACKs (one per two segments), and they leave the connection as one output item.
  EventLoop loop;
  TcpConnectionConfig config;
  config.local_ip = ServerIp();
  config.remote_ip = ClientIp();
  config.local_port = 5001;
  config.remote_port = 10000;
  config.local_mac = ServerMac();
  config.remote_mac = ClientMac();
  std::vector<TcpOutputItem> out;
  TcpConnection server(config, loop,
                       [&out](TcpOutputItem item) { out.push_back(std::move(item)); });
  PacketPool pool;
  const auto deliver = [&](std::vector<uint8_t> frame) {
    SkBuffPtr skb = SkBuff::Wrap(ToPacket(pool, std::move(frame)));
    ASSERT_NE(skb, nullptr);
    server.OnHostPacket(*skb);
  };

  server.Listen();
  FrameOptions syn;
  syn.seq = 999;
  syn.ack = 0;
  syn.flags = kTcpSyn;
  deliver(MakeFrame(syn, 0));
  FrameOptions ack;
  ack.seq = 1000;
  ack.ack = config.initial_seq + 1;
  deliver(MakeFrame(ack, 0));
  ASSERT_EQ(server.state(), TcpState::kEstablished);

  Aggregator aggregator(AggregatorConfig{},
                        [&server](SkBuffPtr skb) { server.OnHostPacket(*skb); });
  for (uint32_t i = 0; i < 4; ++i) {
    FrameOptions data = ack;
    data.seq = 1000 + i * 1448;
    aggregator.Push(ToPacket(pool, MakeFrame(data, 1448)));
  }
  out.clear();
  aggregator.FlushAll();

  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload_size, 0u);
  EXPECT_TRUE(IsPureAck(out[0]));
  auto view = ParseTcpFrame(out[0].frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tcp.ack, 1000u + 2 * 1448);
  EXPECT_EQ(out[0].extra_acks, std::vector<uint32_t>{1000u + 4 * 1448});
}

TEST(TemplateAck, ExpansionCountAndOrder) {
  const auto frames = Expand(MakeTemplate(1000, {2000, 3000}));
  ASSERT_EQ(frames.size(), 3u);
  const uint32_t expected[] = {1000, 2000, 3000};
  for (size_t i = 0; i < frames.size(); ++i) {
    auto view = ParseTcpFrame(frames[i]);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->tcp.ack, expected[i]);
  }
}

TEST(TemplateAck, ExpandedAcksAreByteIdenticalToIndividuallyBuiltOnes) {
  // The central correctness property of Acknowledgment Offload: the driver-expanded
  // ACKs must be indistinguishable from ACKs the TCP layer would have built itself.
  const auto expanded = Expand(MakeTemplate(5552, {7000, 8448, 9896}));
  ASSERT_EQ(expanded.size(), 4u);

  const uint32_t all_acks[] = {5552, 7000, 8448, 9896};
  for (size_t i = 0; i < expanded.size(); ++i) {
    const auto individually_built = MakeAckFrame(all_acks[i]);
    EXPECT_EQ(expanded[i], individually_built) << "ack #" << i;
  }
}

TEST(TemplateAck, ExpandedChecksumsVerify) {
  for (const auto& frame : Expand(MakeTemplate(1, {123456, 999999}))) {
    auto view = ParseTcpFrame(frame);
    ASSERT_TRUE(view.has_value());
    const size_t seg_len = view->ip.total_length - view->ip.HeaderSize();
    EXPECT_TRUE(VerifyTcpChecksum(
        view->ip.src, view->ip.dst,
        std::span<const uint8_t>(frame).subspan(view->tcp_offset, seg_len)));
  }
}

TEST(TemplateAck, ZeroChecksumStaysZero) {
  // Tx checksum offload: the driver leaves the field for the NIC.
  const auto frames = Expand(MakeTemplate(100, {200}, /*fill_checksum=*/false));
  ASSERT_EQ(frames.size(), 2u);
  for (const auto& frame : frames) {
    auto view = ParseTcpFrame(frame);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->tcp.checksum, 0);
  }
}

TEST(TemplateAck, EmptyExtrasExpandsToJustTheTemplate) {
  const auto frames = Expand(MakeTemplate(42, {}));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], MakeAckFrame(42));

  // Any other single frame (a data segment, say) passes through unchanged too.
  TcpOutputItem data;
  data.frame = MakeFrame(FrameOptions{}, 100);
  data.payload_size = 100;
  const auto data_frames = Expand(data);
  ASSERT_EQ(data_frames.size(), 1u);
  EXPECT_EQ(data_frames[0], MakeFrame(FrameOptions{}, 100));
}

TEST(TemplateAck, RewriteAckNumberPreservesEverythingElse) {
  auto frame = MakeAckFrame(1111);
  const auto before = frame;
  RewriteAckNumber(frame, kEthernetHeaderSize + kIpv4MinHeaderSize, 2222);
  auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tcp.ack, 2222u);
  // Only the ack field (4 bytes) and checksum (2 bytes) may differ.
  size_t diffs = 0;
  for (size_t i = 0; i < frame.size(); ++i) {
    if (frame[i] != before[i]) {
      ++diffs;
    }
  }
  EXPECT_LE(diffs, 6u);
  // And the rewritten checksum still verifies.
  const size_t seg_len = view->ip.total_length - view->ip.HeaderSize();
  EXPECT_TRUE(VerifyTcpChecksum(view->ip.src, view->ip.dst,
                                std::span<const uint8_t>(frame).subspan(view->tcp_offset,
                                                                        seg_len)));
}

TEST(TemplateAck, RepeatedRewritesStayValid) {
  auto frame = MakeAckFrame(1);
  for (uint32_t ack = 1000; ack < 1000 + 50 * 1448; ack += 1448) {
    RewriteAckNumber(frame, kEthernetHeaderSize + kIpv4MinHeaderSize, ack);
    auto view = ParseTcpFrame(frame);
    ASSERT_TRUE(view.has_value());
    const size_t seg_len = view->ip.total_length - view->ip.HeaderSize();
    EXPECT_TRUE(VerifyTcpChecksum(view->ip.src, view->ip.dst,
                                  std::span<const uint8_t>(frame).subspan(view->tcp_offset,
                                                                          seg_len)))
        << "ack " << ack;
  }
}

TEST(TemplateAckDeathTest, RejectsNonAckTemplate) {
  // Only a run of pure ACKs differs in nothing but the ack number.
  TcpOutputItem data;
  data.frame = MakeFrame(FrameOptions{}, 100);
  data.payload_size = 100;
  data.extra_acks = {1};
  EXPECT_DEATH(Expand(data), "pure ACK");

  FrameOptions fin_options;
  fin_options.flags = kTcpAck | kTcpFin;
  TcpOutputItem fin;
  fin.frame = MakeFrame(fin_options, 0);
  fin.extra_acks = {1};
  EXPECT_DEATH(Expand(fin), "pure ACK");
}

}  // namespace
}  // namespace tcprx
