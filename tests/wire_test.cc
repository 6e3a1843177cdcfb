// Wire-format tests: Ethernet, IPv4, TCP header parsing/serialization, option
// handling, and whole-frame composition — including every malformed-input rejection
// the receive path relies on.

#include <gtest/gtest.h>

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/rng.h"
#include "src/wire/ethernet.h"
#include "src/wire/frame.h"
#include "src/wire/ipv4.h"
#include "src/wire/tcp.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

TEST(Ethernet, RoundTrip) {
  EthernetHeader h;
  h.dst = MacAddress::FromHostId(7);
  h.src = MacAddress::FromHostId(9);
  h.ether_type = kEtherTypeIpv4;
  std::vector<uint8_t> buf(kEthernetHeaderSize);
  SerializeEthernet(h, buf);
  auto parsed = ParseEthernet(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->ether_type, kEtherTypeIpv4);
}

TEST(Ethernet, TooShortRejected) {
  std::vector<uint8_t> buf(kEthernetHeaderSize - 1);
  EXPECT_FALSE(ParseEthernet(buf).has_value());
}

TEST(Ethernet, MacToString) {
  EXPECT_EQ(MacAddress::FromHostId(0x2a).ToString(), "02:00:00:00:00:2a");
}

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

TEST(Ipv4, RoundTripAndChecksum) {
  Ipv4Header h;
  h.total_length = 1500;
  h.identification = 0xbeef;
  h.ttl = 17;
  h.src = Ipv4Address::FromOctets(192, 168, 1, 10);
  h.dst = Ipv4Address::FromOctets(10, 0, 0, 1);
  std::vector<uint8_t> buf(kIpv4MinHeaderSize);
  SerializeIpv4(h, buf);
  EXPECT_TRUE(VerifyIpv4Checksum(buf));

  auto parsed = ParseIpv4(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->total_length, 1500);
  EXPECT_EQ(parsed->identification, 0xbeef);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_FALSE(parsed->HasOptions());
  EXPECT_FALSE(parsed->IsFragmented());
}

TEST(Ipv4, CorruptionBreaksChecksum) {
  Ipv4Header h;
  h.total_length = 100;
  h.src = Ipv4Address::FromOctets(1, 2, 3, 4);
  h.dst = Ipv4Address::FromOctets(5, 6, 7, 8);
  std::vector<uint8_t> buf(kIpv4MinHeaderSize);
  SerializeIpv4(h, buf);
  buf[8] ^= 0x01;  // flip a TTL bit
  EXPECT_FALSE(VerifyIpv4Checksum(buf));
}

TEST(Ipv4, RejectsWrongVersion) {
  std::vector<uint8_t> buf(kIpv4MinHeaderSize, 0);
  buf[0] = 0x65;  // version 6
  EXPECT_FALSE(ParseIpv4(buf).has_value());
}

TEST(Ipv4, RejectsShortIhl) {
  std::vector<uint8_t> buf(kIpv4MinHeaderSize, 0);
  buf[0] = 0x44;  // ihl = 4 words
  EXPECT_FALSE(ParseIpv4(buf).has_value());
}

TEST(Ipv4, RejectsTruncatedOptions) {
  std::vector<uint8_t> buf(kIpv4MinHeaderSize, 0);
  buf[0] = 0x46;  // ihl = 6 words = 24 bytes, but only 20 present
  EXPECT_FALSE(ParseIpv4(buf).has_value());
}

TEST(Ipv4, ParsesFragmentFlags) {
  Ipv4Header h;
  h.total_length = 60;
  h.more_fragments = true;
  h.fragment_offset = 185;
  h.dont_fragment = false;
  std::vector<uint8_t> buf(kIpv4MinHeaderSize);
  SerializeIpv4(h, buf);
  auto parsed = ParseIpv4(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->more_fragments);
  EXPECT_EQ(parsed->fragment_offset, 185);
  EXPECT_TRUE(parsed->IsFragmented());
}

TEST(Ipv4, AddressToString) {
  EXPECT_EQ(Ipv4Address::FromOctets(10, 0, 3, 1).ToString(), "10.0.3.1");
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

TEST(Tcp, HeaderRoundTrip) {
  TcpHeader h;
  h.src_port = 443;
  h.dst_port = 51515;
  h.seq = 0xdeadbeef;
  h.ack = 0x01020304;
  h.flags = kTcpAck | kTcpPsh;
  h.window = 4321;
  h.data_offset_words = 5;
  std::vector<uint8_t> buf(kTcpMinHeaderSize);
  SerializeTcp(h, buf);
  auto parsed = ParseTcp(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 443);
  EXPECT_EQ(parsed->dst_port, 51515);
  EXPECT_EQ(parsed->seq, 0xdeadbeef);
  EXPECT_EQ(parsed->ack, 0x01020304u);
  EXPECT_TRUE(parsed->Has(kTcpAck));
  EXPECT_TRUE(parsed->Has(kTcpPsh));
  EXPECT_FALSE(parsed->Has(kTcpSyn));
  EXPECT_EQ(parsed->window, 4321);
}

TEST(Tcp, TimestampOptionRoundTrip) {
  TcpHeader h;
  h.data_offset_words = 8;  // 20 + 12 bytes of options
  uint8_t ts[kTcpTimestampOptionSize];
  WriteTimestampOption(TcpTimestampOption{123456, 654321}, ts);
  h.raw_options.assign(ts, ts + kTcpTimestampOptionSize);
  std::vector<uint8_t> buf(h.HeaderSize());
  SerializeTcp(h, buf);
  auto parsed = ParseTcp(buf);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->timestamp.has_value());
  EXPECT_EQ(parsed->timestamp->value, 123456u);
  EXPECT_EQ(parsed->timestamp->echo_reply, 654321u);
  EXPECT_TRUE(parsed->OptionsOnlyTimestamp());
}

TEST(Tcp, MssAndSackPermittedAndWindowScale) {
  TcpHeader h;
  h.raw_options = {
      kTcpOptMss, 4, 0x05, 0xb4,        // MSS 1460
      kTcpOptSackPermitted, 2,          //
      kTcpOptWindowScale, 3, 7,         //
      kTcpOptNop,                        // pad to 12
  };
  h.data_offset_words = 8;
  std::vector<uint8_t> buf(h.HeaderSize());
  SerializeTcp(h, buf);
  auto parsed = ParseTcp(buf);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->mss.has_value());
  EXPECT_EQ(*parsed->mss, 1460);
  EXPECT_TRUE(parsed->sack_permitted);
  ASSERT_TRUE(parsed->window_scale.has_value());
  EXPECT_EQ(*parsed->window_scale, 7);
  EXPECT_FALSE(parsed->OptionsOnlyTimestamp());
}

TEST(Tcp, SackBlocksDetected) {
  TcpHeader h;
  h.raw_options = {kTcpOptSack, 10, 0, 0, 0, 1, 0, 0, 0, 2, kTcpOptNop, kTcpOptNop};
  h.data_offset_words = 8;
  std::vector<uint8_t> buf(h.HeaderSize());
  SerializeTcp(h, buf);
  auto parsed = ParseTcp(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->has_sack_blocks);
  EXPECT_FALSE(parsed->OptionsOnlyTimestamp());
}

TEST(Tcp, UnknownOptionDetected) {
  TcpHeader h;
  h.raw_options = {42, 4, 0xaa, 0xbb};  // unknown kind 42
  h.data_offset_words = 6;
  std::vector<uint8_t> buf(h.HeaderSize());
  SerializeTcp(h, buf);
  auto parsed = ParseTcp(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->has_unknown_option);
  EXPECT_FALSE(parsed->OptionsOnlyTimestamp());
}

TEST(Tcp, NopPaddingOnlyIsTimestampEligible) {
  TcpHeader h;
  h.raw_options = {kTcpOptNop, kTcpOptNop, kTcpOptNop, kTcpOptNop};
  h.data_offset_words = 6;
  std::vector<uint8_t> buf(h.HeaderSize());
  SerializeTcp(h, buf);
  auto parsed = ParseTcp(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->OptionsOnlyTimestamp());
  EXPECT_FALSE(parsed->timestamp.has_value());
}

TEST(Tcp, MalformedOptionLengthRejected) {
  TcpHeader h;
  h.raw_options = {kTcpOptMss, 1, 0, 0};  // length < 2
  h.data_offset_words = 6;
  std::vector<uint8_t> buf(h.HeaderSize());
  SerializeTcp(h, buf);
  EXPECT_FALSE(ParseTcp(buf).has_value());
}

TEST(Tcp, FullOptionBlockRoundTripsThroughAFrame) {
  // Timestamp plus three SACK blocks fill the 40 option bytes a header can carry.
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address::FromOctets(10, 0, 0, 2);
  spec.dst_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  spec.tcp.src_port = 10000;
  spec.tcp.dst_port = 5001;
  spec.tcp.seq = 7;
  spec.tcp.ack = 9;
  spec.tcp.flags = kTcpAck;
  uint8_t ts[kTcpTimestampOptionSize];
  WriteTimestampOption(TcpTimestampOption{111, 222}, ts);
  spec.tcp.raw_options.assign(ts, ts + kTcpTimestampOptionSize);
  const SackBlock blocks[] = {{1000, 2000}, {3000, 4000}, {5000, 6000}};
  AppendSackOption(blocks, spec.tcp.raw_options);
  ASSERT_EQ(spec.tcp.raw_options.size(), kTcpMaxOptionBytes);

  const std::vector<uint8_t> frame = BuildTcpFrame(spec);
  const auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tcp.data_offset_words, 15);
  EXPECT_EQ(view->tcp.raw_options, spec.tcp.raw_options);
  ASSERT_TRUE(view->tcp.timestamp.has_value());
  EXPECT_EQ(view->tcp.timestamp->value, 111u);
  EXPECT_EQ(view->tcp.timestamp->echo_reply, 222u);
  EXPECT_EQ(ParseSackBlocks(view->tcp.raw_options),
            (std::vector<SackBlock>{{1000, 2000}, {3000, 4000}, {5000, 6000}}));
}

TEST(Tcp, OptionBytesResizeZeroFillsAndInsertShifts) {
  TcpOptionBytes options = {1, 2, 3};
  options.resize(1);
  options.resize(3);
  EXPECT_EQ(options, (TcpOptionBytes{1, 0, 0}));
  const uint8_t mid[] = {7, 8};
  options.insert(options.begin() + 1, mid, mid + 2);
  EXPECT_EQ(options, (TcpOptionBytes{1, 7, 8, 0, 0}));
}

TEST(TcpDeathTest, FortyFirstOptionByteAborts) {
  TcpOptionBytes options;
  options.resize(kTcpMaxOptionBytes);
  EXPECT_DEATH(options.push_back(kTcpOptNop), "TCP options exceed 40 bytes");
}

TEST(Tcp, OptionOverrunRejected) {
  TcpHeader h;
  h.raw_options = {kTcpOptTimestamp, 10, 0, 0};  // claims 10, only 4 present
  h.data_offset_words = 6;
  std::vector<uint8_t> buf(h.HeaderSize());
  SerializeTcp(h, buf);
  EXPECT_FALSE(ParseTcp(buf).has_value());
}

TEST(Tcp, DataOffsetBeyondSegmentRejected) {
  std::vector<uint8_t> buf(kTcpMinHeaderSize, 0);
  buf[12] = 0xf0;  // data offset 15 words = 60 bytes > 20 present
  EXPECT_FALSE(ParseTcp(buf).has_value());
}

TEST(Tcp, DataOffsetBelowMinimumRejected) {
  std::vector<uint8_t> buf(kTcpMinHeaderSize, 0);
  buf[12] = 0x40;  // data offset 4 words = 16 bytes < 20
  EXPECT_FALSE(ParseTcp(buf).has_value());
}

TEST(Tcp, ChecksumOverFragmentsMatchesContiguous) {
  Rng rng(3);
  std::vector<uint8_t> header(kTcpMinHeaderSize, 0);
  header[12] = 0x50;
  std::vector<uint8_t> payload(777);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const Ipv4Address src = Ipv4Address::FromOctets(1, 1, 1, 1);
  const Ipv4Address dst = Ipv4Address::FromOctets(2, 2, 2, 2);

  const std::span<const uint8_t> whole[] = {payload};
  const uint16_t expected = TcpChecksum(src, dst, header, whole);

  const std::span<const uint8_t> split[] = {
      std::span<const uint8_t>(payload).first(100),
      std::span<const uint8_t>(payload).subspan(100, 301),
      std::span<const uint8_t>(payload).subspan(401)};
  EXPECT_EQ(TcpChecksum(src, dst, header, split), expected);
}

// ---------------------------------------------------------------------------
// Whole frames
// ---------------------------------------------------------------------------

TEST(Frame, BuildParseRoundTrip) {
  FrameOptions options;
  options.seq = 5000;
  options.ack = 777;
  options.window = 1234;
  const auto frame = MakeFrame(options, 100);
  auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tcp.seq, 5000u);
  EXPECT_EQ(view->tcp.ack, 777u);
  EXPECT_EQ(view->tcp.window, 1234);
  EXPECT_EQ(view->payload_size, 100u);
  EXPECT_EQ(view->ip.total_length, 20 + 32 + 100);
  EXPECT_EQ(view->payload_offset, 14u + 20u + 32u);
  ASSERT_TRUE(view->tcp.timestamp.has_value());
}

TEST(Frame, BuiltChecksumsVerify) {
  const auto frame = MakeFrame(FrameOptions{}, 333);
  auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(VerifyIpv4Checksum(
      std::span<const uint8_t>(frame).subspan(view->ip_offset, view->ip.HeaderSize())));
  const size_t seg_len = view->ip.total_length - view->ip.HeaderSize();
  EXPECT_TRUE(VerifyTcpChecksum(view->ip.src, view->ip.dst,
                                std::span<const uint8_t>(frame).subspan(view->tcp_offset,
                                                                        seg_len)));
}

TEST(Frame, PayloadCorruptionFailsTcpChecksum) {
  auto frame = MakeFrame(FrameOptions{}, 64);
  auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  frame[view->payload_offset + 10] ^= 0xff;
  const size_t seg_len = view->ip.total_length - view->ip.HeaderSize();
  EXPECT_FALSE(VerifyTcpChecksum(view->ip.src, view->ip.dst,
                                 std::span<const uint8_t>(frame).subspan(view->tcp_offset,
                                                                         seg_len)));
}

TEST(Frame, NonIpv4EtherTypeRejected) {
  auto frame = MakeFrame(FrameOptions{}, 10);
  StoreBe16(frame.data() + 12, 0x0806);  // ARP
  EXPECT_FALSE(ParseTcpFrame(frame).has_value());
}

TEST(Frame, NonTcpProtocolRejected) {
  auto frame = MakeFrame(FrameOptions{}, 10);
  frame[14 + 9] = 17;  // UDP
  // Fix the IP checksum so only the protocol check can reject it.
  StoreBe16(frame.data() + 14 + 10, 0);
  const uint16_t csum = InternetChecksum(std::span<const uint8_t>(frame).subspan(14, 20));
  StoreBe16(frame.data() + 14 + 10, csum);
  EXPECT_FALSE(ParseTcpFrame(frame).has_value());
}

TEST(Frame, TruncatedDatagramRejectedUnlessLogical) {
  auto frame = MakeFrame(FrameOptions{}, 500);
  frame.resize(frame.size() - 400);  // physically truncate
  EXPECT_FALSE(ParseTcpFrame(frame).has_value());
  auto view = ParseTcpFrame(frame, /*allow_logical_length=*/true);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->payload_size, 500u);  // logical size from the IP header
}

TEST(Frame, EthernetPaddingIgnored) {
  auto frame = MakeFrame(FrameOptions{}, 1);  // tiny frame, would be padded on wire
  frame.resize(frame.size() + 7, 0);          // trailing padding
  auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->payload_size, 1u);
}

TEST(Frame, ZeroChecksumModeLeavesFieldZero) {
  FrameOptions options;
  options.fill_checksum = false;
  const auto frame = MakeFrame(options, 40);
  auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tcp.checksum, 0);
}

TEST(Frame, RandomizedRoundTripProperty) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    FrameOptions options;
    options.seq = static_cast<uint32_t>(rng.Next());
    options.ack = static_cast<uint32_t>(rng.Next());
    options.window = static_cast<uint16_t>(rng.Next());
    options.with_timestamp = rng.NextBool(0.5);
    options.ts_value = static_cast<uint32_t>(rng.Next());
    const size_t payload = rng.NextBelow(1449);
    const auto frame = MakeFrame(options, payload);
    auto view = ParseTcpFrame(frame);
    ASSERT_TRUE(view.has_value()) << "trial " << trial;
    EXPECT_EQ(view->tcp.seq, options.seq);
    EXPECT_EQ(view->tcp.ack, options.ack);
    EXPECT_EQ(view->tcp.window, options.window);
    EXPECT_EQ(view->payload_size, payload);
    EXPECT_EQ(view->tcp.timestamp.has_value(), options.with_timestamp);
  }
}

}  // namespace
}  // namespace tcprx
