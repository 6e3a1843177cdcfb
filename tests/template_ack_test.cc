// Acknowledgment Offload tests: template construction by the TCP layer, driver-side
// expansion, and the byte-equivalence property of section 4.2 (successive ACKs differ
// only in the ack number and the checksum, so expansion reproduces them exactly).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/core/aggregator.h"
#include "src/core/template_ack.h"
#include "src/util/byte_order.h"
#include "src/wire/frame.h"
#include "src/wire/frame_buffer.h"
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

// The frames the driver puts on the wire for `item`, in order.
std::vector<std::vector<uint8_t>> Expand(TcpOutputItem item) {
  std::vector<std::vector<uint8_t>> frames;
  ExpandTemplateAck(std::move(item),
                    [&frames](std::vector<uint8_t> frame) { frames.push_back(std::move(frame)); });
  return frames;
}

// Expands a template ACK as the TCP layer hands it down: the first ACK fully built plus
// the ack numbers of the rest of the run, which the item views.
std::vector<std::vector<uint8_t>> ExpandTemplate(uint32_t first_ack,
                                                 const std::vector<uint32_t>& extras,
                                                 bool fill_checksum = true) {
  TcpOutputItem item;
  item.frame = MakeAckFrame(first_ack, fill_checksum);
  item.extra_acks = extras;
  return Expand(std::move(item));
}

// A server connection past its handshake, fed host packets directly. It owns the
// connection, whose output items go to `on_output`.
struct EstablishedServer final : TcpConnection::Owner {
  EstablishedServer() : server(Config(), loop, *this) {
    server.Listen();
    FrameOptions syn;
    syn.seq = 999;
    syn.ack = 0;
    syn.flags = kTcpSyn;
    Deliver(MakeFrame(syn, 0));
    Deliver(MakeFrame(Data(0), 0));
  }

  static TcpConnectionConfig Config() {
    TcpConnectionConfig config;
    config.local_ip = ServerIp();
    config.remote_ip = ClientIp();
    config.local_port = 5001;
    config.remote_port = 10000;
    config.local_mac = ServerMac();
    config.remote_mac = ClientMac();
    return config;
  }

  // The client's segment `index`, 1448 bytes each after the handshake.
  FrameOptions Data(uint32_t index) const {
    FrameOptions options;
    options.seq = 1000 + index * 1448;
    options.ack = Config().initial_seq + 1;
    return options;
  }

  void Deliver(std::vector<uint8_t> frame) {
    SkBuffPtr skb = SkBuff::Wrap(ToPacket(pool, std::move(frame)));
    TCPRX_CHECK(skb != nullptr);
    server.OnHostPacket(*skb);
  }

  // Four in-sequence segments as one aggregate: the connection owes two ACKs.
  void DeliverAggregateOfFour() {
    Aggregator aggregator(20);
    Aggregator::HostPackets finished;
    for (uint32_t i = 0; i < 4; ++i) {
      TCPRX_CHECK(aggregator.Push(ToPacket(pool, MakeFrame(Data(i), 1448)), finished) == nullptr);
    }
    aggregator.FlushAll(finished);
    TCPRX_CHECK(finished.size() == 1);
    server.OnHostPacket(*finished.front());
  }

  void Output(TcpConnection& /*conn*/, TcpOutputItem&& item) override {
    on_output(std::move(item));
  }

  EventLoop loop;
  PacketPool pool;
  std::function<void(TcpOutputItem)> on_output = [](TcpOutputItem) {};
  TcpConnection server;
};

TEST(TemplateAck, BuildCarriesExtraAcks) {
  // The TCP layer builds the template: an aggregated packet of four segments owes two
  // ACKs (one per two segments), and they leave the connection as one output item.
  EstablishedServer t;
  ASSERT_EQ(t.server.state(), TcpState::kEstablished);
  // An item's extra_acks live only for the output call: keep a copy of them.
  std::vector<TcpOutputItem> out;
  std::vector<std::vector<uint32_t>> out_extra_acks;
  t.on_output = [&](TcpOutputItem item) {
    out_extra_acks.emplace_back(item.extra_acks.begin(), item.extra_acks.end());
    item.extra_acks = {};
    out.push_back(std::move(item));
  };
  t.DeliverAggregateOfFour();

  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload_size, 0u);
  EXPECT_TRUE(IsPureAck(out[0]));
  auto view = ParseTcpFrame(out[0].frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tcp.ack, 1000u + 2 * 1448);
  EXPECT_EQ(out_extra_acks[0], std::vector<uint32_t>{1000u + 4 * 1448});
}

TEST(TemplateAckDeathTest, OutputMayNotReenterTheConnection) {
  // extra_acks views the connection's ACK batch: a packet delivered to the connection
  // from inside the output call would overwrite the batch the item still reads.
  EXPECT_DEATH(
      {
        EstablishedServer t;
        t.on_output = [&t](TcpOutputItem item) {
          if (!item.extra_acks.empty()) {
            t.Deliver(MakeFrame(t.Data(4), 1448));
          }
        };
        t.DeliverAggregateOfFour();
      },
      "OnHostPacket re-entered while an ACK batch is open");
}

TEST(TemplateAck, ExpansionCountAndOrder) {
  const auto frames = ExpandTemplate(1000, {2000, 3000});
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
  const auto expanded = ExpandTemplate(5552, {7000, 8448, 9896});
  ASSERT_EQ(expanded.size(), 4u);

  const uint32_t all_acks[] = {5552, 7000, 8448, 9896};
  for (size_t i = 0; i < expanded.size(); ++i) {
    const auto individually_built = MakeAckFrame(all_acks[i]);
    EXPECT_EQ(expanded[i], individually_built) << "ack #" << i;
  }
}

TEST(TemplateAck, ExpansionIntoRecycledBuffersIsByteIdentical) {
  // The template and its copies are written into recycled small buffers full of stale
  // bytes; none of them may survive into an ACK. A full-MTU buffer waits too, and no
  // ACK may take it.
  std::vector<uint8_t> full = TakeFrameBuffer(kFrameBufferCapacity);
  std::fill(full.begin(), full.end(), uint8_t{0xab});
  const uint8_t* full_storage = full.data();
  RecycleFrameBuffer(std::move(full));
  std::vector<std::vector<uint8_t>> stale(4);
  std::vector<const uint8_t*> recycled;
  for (std::vector<uint8_t>& buffer : stale) {
    buffer = TakeFrameBuffer(kSmallFrameBufferCapacity);
    std::fill(buffer.begin(), buffer.end(), uint8_t{0xab});
    recycled.push_back(buffer.data());
  }
  for (std::vector<uint8_t>& buffer : stale) {
    RecycleFrameBuffer(std::move(buffer));
  }
  const auto expanded = ExpandTemplate(5552, {7000, 8448, 9896});
  ASSERT_EQ(expanded.size(), 4u);
  const uint32_t all_acks[] = {5552, 7000, 8448, 9896};
  for (size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(expanded[i], MakeAckFrame(all_acks[i])) << "ack #" << i;
    EXPECT_NE(std::find(recycled.begin(), recycled.end(), expanded[i].data()), recycled.end())
        << "ack #" << i << " is not in a recycled buffer";
    EXPECT_NE(expanded[i].data(), full_storage) << "ack #" << i << " took a full-MTU buffer";
  }
}

TEST(TemplateAck, ExpandedChecksumsVerify) {
  for (const auto& frame : ExpandTemplate(1, {123456, 999999})) {
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
  const auto frames = ExpandTemplate(100, {200}, /*fill_checksum=*/false);
  ASSERT_EQ(frames.size(), 2u);
  for (const auto& frame : frames) {
    auto view = ParseTcpFrame(frame);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->tcp.checksum, 0);
  }
}

TEST(TemplateAck, EmptyExtrasExpandsToJustTheTemplate) {
  const auto frames = ExpandTemplate(42, {});
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
  const uint32_t one_more[] = {1};
  TcpOutputItem data;
  data.frame = MakeFrame(FrameOptions{}, 100);
  data.payload_size = 100;
  data.extra_acks = one_more;
  EXPECT_DEATH(Expand(data), "pure ACK");

  FrameOptions fin_options;
  fin_options.flags = kTcpAck | kTcpFin;
  TcpOutputItem fin;
  fin.frame = MakeFrame(fin_options, 0);
  fin.extra_acks = one_more;
  EXPECT_DEATH(Expand(fin), "pure ACK");
}

}  // namespace
}  // namespace tcprx
