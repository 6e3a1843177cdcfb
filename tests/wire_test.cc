// Wire-format tests: Ethernet, IPv4, TCP header parsing/serialization, option
// handling, and whole-frame composition — including every malformed-input rejection
// the receive path relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/harness_counters.h"
#include "src/util/rng.h"
#include "src/wire/ethernet.h"
#include "src/wire/frame.h"
#include "src/wire/frame_buffer.h"
#include "src/wire/ipv4.h"
#include "src/wire/raw_view.h"
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

TEST(Tcp, OptionBytesAppendReturnsTheBytesPastTheEnd) {
  TcpOptionBytes options = {1, 2, 3};
  const std::span<uint8_t> added = options.Append(2);
  ASSERT_EQ(added.size(), 2u);
  EXPECT_EQ(added.data(), options.data() + 3);
  added[0] = 7;
  added[1] = 8;
  EXPECT_EQ(options, (TcpOptionBytes{1, 2, 3, 7, 8}));
}

TEST(TcpDeathTest, FortyFirstOptionByteAborts) {
  TcpOptionBytes options;
  options.Append(kTcpMaxOptionBytes);
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

TEST(Frame, ReceiveChecksumCheckTrustsOnlyAZeroField) {
  // The one check the NIC and the stack's software verify share.
  auto frame = MakeFrame(FrameOptions{}, 64);
  auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(VerifyFrameTcpChecksum(frame, *view));
  // Ethernet padding past the IP total length is not part of the segment.
  frame.insert(frame.end(), 6, 0xee);
  EXPECT_TRUE(VerifyFrameTcpChecksum(frame, *view));
  frame[view->payload_offset + 10] ^= 0xff;
  EXPECT_FALSE(VerifyFrameTcpChecksum(frame, *view));

  // A zero field models tx checksum offload: the frame is trusted as it stands.
  FrameOptions offloaded;
  offloaded.fill_checksum = false;
  auto unfilled = MakeFrame(offloaded, 64);
  auto unfilled_view = ParseTcpFrame(unfilled);
  ASSERT_TRUE(unfilled_view.has_value());
  unfilled[unfilled_view->payload_offset + 10] ^= 0xff;
  EXPECT_TRUE(VerifyFrameTcpChecksum(unfilled, *unfilled_view));
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
}

TEST(Frame, IpChecksumVerdictFollowsTheHeaderBytes) {
  const auto good = MakeFrame(FrameOptions{}, 100);
  auto view = ParseTcpFrame(good);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->ip_checksum_ok);
  // Flip one byte of each header field the parse accepts any value of: the frame still
  // parses, with the header's checksum verdict false.
  constexpr size_t kAnyValueBytes[] = {1, 4, 5, 6, 8, 10, 11, 12, 15, 16, 19};
  for (const size_t at : kAnyValueBytes) {
    auto bad = good;
    bad[kEthernetHeaderSize + at] ^= 0x01;
    view = ParseTcpFrame(bad);
    ASSERT_TRUE(view.has_value()) << "byte " << at;
    EXPECT_FALSE(view->ip_checksum_ok) << "byte " << at;
  }
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

TEST(Frame, ReusedViewKeepsNothingOfThePreviousFrame) {
  // A SYN with every option the stack sends, then a bare ACK parsed into the same view.
  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.extra_options = {kTcpOptMss, 4, 0x05, 0xa8, kTcpOptWindowScale, 3, 7,
                       kTcpOptSackPermitted, 2};
  const auto syn_frame = MakeFrame(syn, 0);
  TcpFrameView view;
  ASSERT_TRUE(ParseTcpFrame(syn_frame, view));
  ASSERT_TRUE(view.tcp.timestamp.has_value());
  ASSERT_TRUE(view.tcp.mss.has_value());
  ASSERT_TRUE(view.tcp.window_scale.has_value());
  ASSERT_TRUE(view.tcp.sack_permitted);
  EXPECT_EQ(view.tcp.timestamp_offset, 2);  // after the two NOPs of the canonical block
  EXPECT_EQ(view.tcp.raw_options.size(), 24u);  // 12 + 9, padded to 24

  FrameOptions ack;
  ack.with_timestamp = false;
  ack.seq = 9000;
  const auto ack_frame = MakeFrame(ack, 10);
  ASSERT_TRUE(ParseTcpFrame(ack_frame, view));
  EXPECT_FALSE(view.tcp.timestamp.has_value());
  EXPECT_EQ(view.tcp.timestamp_offset, 0);
  EXPECT_FALSE(view.tcp.mss.has_value());
  EXPECT_FALSE(view.tcp.window_scale.has_value());
  EXPECT_FALSE(view.tcp.sack_permitted);
  EXPECT_FALSE(view.tcp.has_sack_blocks);
  EXPECT_FALSE(view.tcp.has_unknown_option);
  EXPECT_EQ(view.tcp.raw_options.size(), 0u);
  EXPECT_EQ(view.tcp.data_offset_words, 5);
  EXPECT_EQ(view.tcp.flags, kTcpAck);
  EXPECT_EQ(view.tcp.seq, 9000u);
  EXPECT_EQ(view.tcp_offset, 14u + 20u);
  EXPECT_EQ(view.payload_offset, 14u + 20u + 20u);
  EXPECT_EQ(view.payload_size, 10u);

  // Sack and unknown-option flags clear too.
  FrameOptions odd;
  odd.extra_options = {kTcpOptSack, 10, 0, 0, 0, 1, 0, 0, 0, 2, 42, 2};
  ASSERT_TRUE(ParseTcpFrame(MakeFrame(odd, 0), view));
  ASSERT_TRUE(view.tcp.has_sack_blocks);
  ASSERT_TRUE(view.tcp.has_unknown_option);
  ASSERT_TRUE(ParseTcpFrame(ack_frame, view));
  EXPECT_FALSE(view.tcp.has_sack_blocks);
  EXPECT_FALSE(view.tcp.has_unknown_option);
  EXPECT_TRUE(view.tcp.OptionsOnlyTimestamp());
}

// ---------------------------------------------------------------------------
// The one-pass parse against a byte-at-a-time reference decoder
// ---------------------------------------------------------------------------

// Decodes `f` as ParseTcpFrame must: every field read a byte at a time, the IPv4 header
// checksum summed two bytes at a time (RFC 1071), and the option walk with no
// aligned-timestamp compare. nullopt where the parse must return false.
std::optional<TcpFrameView> ReferenceDecode(std::span<const uint8_t> f) {
  const auto be16 = [f](size_t at) { return static_cast<uint16_t>(f[at] << 8 | f[at + 1]); };
  const auto be32 = [be16](size_t at) { return uint32_t{be16(at)} << 16 | be16(at + 2); };
  TcpFrameView v;
  if (f.size() < kEthernetHeaderSize) {
    return std::nullopt;
  }
  for (size_t i = 0; i < 6; ++i) {
    v.eth.dst.bytes[i] = f[i];
    v.eth.src.bytes[i] = f[6 + i];
  }
  v.eth.ether_type = be16(12);
  const size_t ip = kEthernetHeaderSize;
  if (v.eth.ether_type != kEtherTypeIpv4 || f.size() < ip + kIpv4MinHeaderSize) {
    return std::nullopt;
  }
  const size_t ihl = f[ip] & 0x0f;
  if (f[ip] >> 4 != 4 || ihl < 5 || f.size() < ip + ihl * 4) {
    return std::nullopt;
  }
  v.ip.ihl_words = static_cast<uint8_t>(ihl);
  v.ip.tos = f[ip + 1];
  v.ip.total_length = be16(ip + 2);
  v.ip.identification = be16(ip + 4);
  v.ip.dont_fragment = (f[ip + 6] & 0x40) != 0;
  v.ip.more_fragments = (f[ip + 6] & 0x20) != 0;
  v.ip.fragment_offset = be16(ip + 6) & 0x1fff;
  v.ip.ttl = f[ip + 8];
  v.ip.protocol = f[ip + 9];
  v.ip.checksum = be16(ip + 10);
  v.ip.src.value = be32(ip + 12);
  v.ip.dst.value = be32(ip + 16);
  if (v.ip.total_length < ihl * 4 || v.ip.protocol != kIpProtoTcp ||
      ip + v.ip.total_length > f.size()) {
    return std::nullopt;
  }
  v.ip_checksum_ok = testutil::BytePairFoldedSum(f.subspan(ip, ihl * 4)) == 0xffff;
  v.ip_offset = ip;
  const size_t t = ip + ihl * 4;
  const size_t segment_size = v.ip.total_length - ihl * 4;
  v.tcp_offset = t;
  if (segment_size < kTcpMinHeaderSize) {
    return std::nullopt;
  }
  TcpHeader& h = v.tcp;
  h.data_offset_words = f[t + 12] >> 4;
  const size_t hsize = h.data_offset_words * size_t{4};
  if (hsize < kTcpMinHeaderSize || hsize > segment_size) {
    return std::nullopt;
  }
  h.src_port = be16(t);
  h.dst_port = be16(t + 2);
  h.seq = be32(t + 4);
  h.ack = be32(t + 8);
  h.flags = f[t + 13] & 0x3f;
  h.window = be16(t + 14);
  h.checksum = be16(t + 16);
  h.urgent_pointer = be16(t + 18);
  const size_t o = t + kTcpMinHeaderSize;
  const size_t end = t + hsize;
  for (size_t i = o; i < end; ++i) {
    h.raw_options.push_back(f[i]);
  }
  for (size_t i = o; i < end;) {
    const uint8_t kind = f[i];
    if (kind == kTcpOptEnd) {
      break;
    }
    if (kind == kTcpOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= end || f[i + 1] < 2 || i + f[i + 1] > end) {
      return std::nullopt;
    }
    const uint8_t len = f[i + 1];
    if (kind == kTcpOptMss) {
      if (len != 4) {
        return std::nullopt;
      }
      h.mss = be16(i + 2);
    } else if (kind == kTcpOptWindowScale) {
      if (len != 3) {
        return std::nullopt;
      }
      h.window_scale = f[i + 2];
    } else if (kind == kTcpOptSackPermitted) {
      if (len != 2) {
        return std::nullopt;
      }
      h.sack_permitted = true;
    } else if (kind == kTcpOptSack) {
      h.has_sack_blocks = true;
    } else if (kind == kTcpOptTimestamp) {
      if (len != 10) {
        return std::nullopt;
      }
      h.timestamp = TcpTimestampOption{be32(i + 2), be32(i + 6)};
      h.timestamp_offset = static_cast<uint8_t>(i - o);
    } else {
      h.has_unknown_option = true;
    }
    i += len;
  }
  v.payload_offset = end;
  v.payload_size = segment_size - hsize;
  return v;
}

// The fields in which `got` differs from `want`, by name; empty when it matches.
std::string ViewDifferences(const TcpFrameView& got, const TcpFrameView& want) {
  std::string diff;
  const auto check = [&diff](bool same, const char* name) {
    if (!same) {
      diff = diff + " " + name;
    }
  };
  check(got.eth.dst == want.eth.dst && got.eth.src == want.eth.src &&
            got.eth.ether_type == want.eth.ether_type,
        "eth");
  const Ipv4Header& a = got.ip;
  const Ipv4Header& b = want.ip;
  check(a.ihl_words == b.ihl_words && a.tos == b.tos && a.total_length == b.total_length &&
            a.identification == b.identification,
        "ip.ihl/tos/total_length/identification");
  check(a.dont_fragment == b.dont_fragment && a.more_fragments == b.more_fragments &&
            a.fragment_offset == b.fragment_offset,
        "ip.fragment fields");
  check(a.ttl == b.ttl && a.protocol == b.protocol && a.checksum == b.checksum,
        "ip.ttl/protocol/checksum");
  check(a.src == b.src && a.dst == b.dst, "ip.src/dst");
  const TcpHeader& x = got.tcp;
  const TcpHeader& y = want.tcp;
  check(x.src_port == y.src_port && x.dst_port == y.dst_port && x.seq == y.seq &&
            x.ack == y.ack,
        "tcp.ports/seq/ack");
  check(x.data_offset_words == y.data_offset_words && x.flags == y.flags &&
            x.window == y.window && x.checksum == y.checksum &&
            x.urgent_pointer == y.urgent_pointer,
        "tcp.offset/flags/window/checksum/urgent");
  check(x.timestamp.has_value() == y.timestamp.has_value() &&
            (!x.timestamp || (x.timestamp->value == y.timestamp->value &&
                              x.timestamp->echo_reply == y.timestamp->echo_reply)),
        "tcp.timestamp");
  check(x.timestamp_offset == y.timestamp_offset, "tcp.timestamp_offset");
  check(x.mss == y.mss, "tcp.mss");
  check(x.window_scale == y.window_scale, "tcp.window_scale");
  check(x.sack_permitted == y.sack_permitted, "tcp.sack_permitted");
  check(x.has_sack_blocks == y.has_sack_blocks, "tcp.has_sack_blocks");
  check(x.has_unknown_option == y.has_unknown_option, "tcp.has_unknown_option");
  check(x.raw_options == y.raw_options, "tcp.raw_options");
  check(got.ip_offset == want.ip_offset && got.tcp_offset == want.tcp_offset &&
            got.payload_offset == want.payload_offset && got.payload_size == want.payload_size,
        "offsets/payload_size");
  check(got.ip_checksum_ok == want.ip_checksum_ok, "ip_checksum_ok");
  return diff;
}

void AppendRandomBytes(Rng& rng, size_t n, std::vector<uint8_t>& out) {
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<uint8_t>(rng.Next()));
  }
}

// Appends one option, well-formed or not, of the layouts the option walk must handle.
void AppendRandomOption(Rng& rng, std::vector<uint8_t>& block) {
  switch (rng.NextBelow(11)) {
    case 0:  // the aligned timestamp block, wherever it falls
      block.insert(block.end(), {kTcpOptNop, kTcpOptNop, kTcpOptTimestamp, 10});
      AppendRandomBytes(rng, 8, block);
      break;
    case 1:  // a timestamp without its NOPs
      block.insert(block.end(), {kTcpOptTimestamp, 10});
      AppendRandomBytes(rng, 8, block);
      break;
    case 2:  // a timestamp with a wrong length
      block.insert(block.end(), {kTcpOptTimestamp, static_cast<uint8_t>(rng.NextBelow(12))});
      AppendRandomBytes(rng, 8, block);
      break;
    case 3:
      block.push_back(kTcpOptEnd);
      break;
    case 4:
      block.push_back(kTcpOptNop);
      break;
    case 5:
      block.insert(block.end(), {kTcpOptMss, 4});
      AppendRandomBytes(rng, 2, block);
      break;
    case 6:
      block.insert(block.end(), {kTcpOptWindowScale, 3});
      AppendRandomBytes(rng, 1, block);
      break;
    case 7:
      block.insert(block.end(), {kTcpOptSackPermitted, 2});
      break;
    case 8: {
      const size_t blocks = 1 + rng.NextBelow(3);
      block.insert(block.end(), {kTcpOptSack, static_cast<uint8_t>(2 + 8 * blocks)});
      AppendRandomBytes(rng, 8 * blocks, block);
      break;
    }
    case 9: {  // an unknown kind
      const uint8_t len = static_cast<uint8_t>(2 + rng.NextBelow(5));
      block.insert(block.end(), {static_cast<uint8_t>(9 + rng.NextBelow(247)), len});
      AppendRandomBytes(rng, len - 2u, block);
      break;
    }
    default:  // any kind with any length, and what follows cut short
      AppendRandomBytes(rng, 2 + rng.NextBelow(3), block);
      break;
  }
}

// A TCP option block of at most 40 bytes, padded to whole words.
std::vector<uint8_t> RandomOptionBlock(Rng& rng) {
  std::vector<uint8_t> block;
  const uint64_t shape = rng.NextBelow(10);
  if (shape < 6) {
    // The aligned timestamp block at offset 0, as every timestamped segment the stack
    // writes carries it; with a random length byte one time in six.
    const uint8_t len = shape == 0 ? static_cast<uint8_t>(rng.NextBelow(12)) : 10;
    block.insert(block.end(), {kTcpOptNop, kTcpOptNop, kTcpOptTimestamp, len});
    AppendRandomBytes(rng, 8, block);
    if (shape >= 4) {  // and more after it, as a SACK-carrying ACK has
      AppendRandomOption(rng, block);
    }
  } else {
    for (uint64_t n = 1 + rng.NextBelow(6); n > 0; --n) {
      AppendRandomOption(rng, block);
    }
  }
  block.resize(std::min(block.size(), kTcpMaxOptionBytes));
  while (block.size() % 4 != 0) {
    block.push_back(rng.NextBool(0.5) ? uint8_t{kTcpOptEnd} : static_cast<uint8_t>(rng.Next()));
  }
  return block;
}

// A random Ethernet/IPv4/TCP frame: IPv4 options (ihl 5..15), a random TCP option
// block, a valid IPv4 checksum, and then, now and again, a flipped bit in the headers,
// a wrong length field, or an ethertype or protocol the parse refuses.
std::vector<uint8_t> RandomFrame(Rng& rng) {
  std::vector<uint8_t> f;
  AppendRandomBytes(rng, 12, f);
  const uint16_t ether_type = rng.NextBool(0.97) ? kEtherTypeIpv4 : 0x86dd;
  f.insert(f.end(), {static_cast<uint8_t>(ether_type >> 8), static_cast<uint8_t>(ether_type)});
  const size_t ihl = rng.NextBool(0.5) ? 5 : 5 + rng.NextBelow(11);
  const std::vector<uint8_t> options = RandomOptionBlock(rng);
  const size_t payload = rng.NextBelow(48);
  const size_t ip = f.size();
  AppendRandomBytes(rng, ihl * 4, f);
  f[ip] = static_cast<uint8_t>(0x40 | ihl);
  size_t total_length = ihl * 4 + kTcpMinHeaderSize + options.size() + payload;
  if (rng.NextBool(0.05)) {
    total_length = rng.NextBelow(total_length + 16);
  }
  StoreBe16(f.data() + ip + 2, static_cast<uint16_t>(total_length));
  f[ip + 9] = rng.NextBool(0.97) ? kIpProtoTcp : static_cast<uint8_t>(rng.Next());
  StoreBe16(f.data() + ip + 10, 0);
  StoreBe16(f.data() + ip + 10, InternetChecksum(std::span<const uint8_t>(f).subspan(ip)));
  const size_t t = f.size();
  AppendRandomBytes(rng, kTcpMinHeaderSize, f);
  f[t + 12] = static_cast<uint8_t>((5 + options.size() / 4) << 4 | (f[t + 12] & 0x0f));
  if (rng.NextBool(0.05)) {
    f[t + 12] = static_cast<uint8_t>(rng.Next());
  }
  f.insert(f.end(), options.begin(), options.end());
  AppendRandomBytes(rng, payload + (rng.NextBool(0.2) ? rng.NextBelow(8) : 0), f);
  if (rng.NextBool(0.3)) {
    const size_t at = kEthernetHeaderSize + rng.NextBelow(ihl * 4);
    f[at] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
  }
  return f;
}

TEST(Frame, OnePassParseMatchesTheReferenceDecoder) {
  Rng rng(33);
  TcpFrameView view;  // reused, as the packet pool reuses its packets' views
  int parsed = 0;
  int aligned_timestamps = 0;
  int ip_options_checked = 0;
  int bad_ip_checksums = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::vector<uint8_t> frame = RandomFrame(rng);
    const std::optional<TcpFrameView> want = ReferenceDecode(frame);
    ASSERT_EQ(ParseTcpFrame(frame, view), want.has_value()) << "trial " << trial;
    if (!want) {
      continue;
    }
    ASSERT_EQ(ViewDifferences(view, *want), "") << "trial " << trial;
    ++parsed;
    aligned_timestamps += view.tcp.timestamp_offset == 2;
    ip_options_checked += view.ip.HasOptions() && view.ip_checksum_ok;
    bad_ip_checksums += !view.ip_checksum_ok;
  }
  // The frames reach each path the comparison is for.
  EXPECT_GT(parsed, 5000);
  EXPECT_GT(aligned_timestamps, 2000);
  EXPECT_GT(ip_options_checked, 1000);
  EXPECT_GT(bad_ip_checksums, 1000);
}

// ---------------------------------------------------------------------------
// Steering peek against the full parse
// ---------------------------------------------------------------------------

// How a PeekFlowKey test frame departs from a valid TCP/IPv4 frame. The first two
// cases are steered by their tuple; RSS hardware funnels every other one to queue 0.
enum class PeekCase { kValid, kFirstFragment, kEtherType, kVersion, kProtocol, kShortIhl,
                      kLaterFragment, kCount };

// A TCP/IPv4 frame whose IP header is `ihl` words long (the options random), with
// random addresses, ports, flags and payload and a valid IP checksum, changed as `c`
// says.
std::vector<uint8_t> PeekFrame(Rng& rng, PeekCase c, size_t ihl) {
  std::vector<uint8_t> f;
  AppendRandomBytes(rng, 12, f);
  uint16_t ether_type = kEtherTypeIpv4;
  while (c == PeekCase::kEtherType && ether_type == kEtherTypeIpv4) {
    ether_type = static_cast<uint16_t>(rng.Next());
  }
  f.insert(f.end(), {static_cast<uint8_t>(ether_type >> 8), static_cast<uint8_t>(ether_type)});
  const size_t ip = f.size();
  const size_t tcp_size = kTcpMinHeaderSize + rng.NextBelow(32);
  AppendRandomBytes(rng, ihl * 4 + tcp_size, f);
  uint8_t version = 4;
  while (c == PeekCase::kVersion && version == 4) {
    version = static_cast<uint8_t>(rng.NextBelow(16));
  }
  const size_t ihl_field = c == PeekCase::kShortIhl ? rng.NextBelow(5) : ihl;
  f[ip] = static_cast<uint8_t>(version << 4 | ihl_field);
  StoreBe16(f.data() + ip + 2, static_cast<uint16_t>(ihl * 4 + tcp_size));
  uint16_t fragment = rng.NextBool(0.5) ? 0x4000 : 0;  // DF or not, offset 0
  if (c == PeekCase::kFirstFragment) {
    fragment = 0x2000;  // more fragments follow; this one holds the TCP header
  } else if (c == PeekCase::kLaterFragment) {
    fragment = static_cast<uint16_t>((rng.NextBool(0.5) ? 0x2000 : 0) | (1 + rng.NextBelow(0x1fff)));
  }
  StoreBe16(f.data() + ip + 6, fragment);
  uint8_t protocol = kIpProtoTcp;
  while (c == PeekCase::kProtocol && protocol == kIpProtoTcp) {
    protocol = static_cast<uint8_t>(rng.Next());
  }
  f[ip + 9] = protocol;
  StoreBe16(f.data() + ip + 10, 0);
  StoreBe16(f.data() + ip + 10, InternetChecksum(std::span<const uint8_t>(f).subspan(ip, ihl * 4)));
  const size_t t = ip + ihl * 4;
  f[t + 12] = static_cast<uint8_t>(5 << 4);
  f[t + 13] = static_cast<uint8_t>((f[t + 13] & ~kTcpSyn) | (rng.NextBool(0.5) ? kTcpSyn : 0));
  return f;
}

TEST(FlowPeek, MatchesTheFullParseAndFunnelsExactlyTheRefusedFrames) {
  Rng rng(34);
  TcpFrameView view;
  int seen[static_cast<int>(PeekCase::kCount)] = {};
  int compared = 0;
  int syns = 0;
  int cuts = 0;
  for (int trial = 0; trial < 7000; ++trial) {
    const auto c = static_cast<PeekCase>(rng.NextBelow(static_cast<uint64_t>(PeekCase::kCount)));
    const size_t ihl = 5 + rng.NextBelow(11);
    const std::vector<uint8_t> frame = PeekFrame(rng, c, ihl);
    ++seen[static_cast<int>(c)];
    const std::optional<FlowPeek> peek = PeekFlowKey(frame);
    const bool steered = c == PeekCase::kValid || c == PeekCase::kFirstFragment;
    ASSERT_EQ(peek.has_value(), steered) << "trial " << trial << " case " << static_cast<int>(c);
    const bool parsed = ParseTcpFrame(frame, view);
    ASSERT_TRUE(parsed || !steered) << "trial " << trial;
    if (parsed && view.ip.fragment_offset == 0) {
      ASSERT_TRUE(peek.has_value()) << "trial " << trial;
      EXPECT_EQ(peek->key, (FlowKey{view.ip.src, view.ip.dst, view.tcp.src_port,
                                    view.tcp.dst_port}))
          << "trial " << trial;
      EXPECT_EQ(peek->syn, (view.tcp.flags & kTcpSyn) != 0) << "trial " << trial;
      ++compared;
      syns += peek->syn;
    }
    if (!steered || trial % 4 != 0) {
      continue;
    }
    // Cut the frame at every length up to its TCP flags byte: each cut short of that
    // byte is funnelled, and the cut that ends with it peeks as the whole frame. Each
    // cut is its own buffer of exactly that size, so a read past it faults under ASan.
    const size_t through_flags = kEthernetHeaderSize + ihl * 4 + 14;
    for (size_t len = 0; len <= through_flags; ++len) {
      const std::vector<uint8_t> cut(frame.begin(), frame.begin() + static_cast<ptrdiff_t>(len));
      const std::optional<FlowPeek> cut_peek = PeekFlowKey(cut);
      ASSERT_EQ(cut_peek.has_value(), len == through_flags) << "trial " << trial << " len " << len;
      if (cut_peek.has_value()) {
        EXPECT_EQ(cut_peek->key, peek->key);
        EXPECT_EQ(cut_peek->syn, peek->syn);
      }
    }
    ++cuts;
  }
  // Every case is drawn, and the comparisons cover both SYN settings.
  for (int n : seen) {
    EXPECT_GT(n, 800);
  }
  EXPECT_GT(compared, 1800);
  EXPECT_GT(syns, 800);
  EXPECT_LT(syns, compared - 800);
  EXPECT_GT(cuts, 400);
}

// ---------------------------------------------------------------------------
// Frame writer against the field-by-field serializers
// ---------------------------------------------------------------------------

struct WriterCase {
  const char* name;
  TcpSegmentFields fields;
  TcpOptionBytes options;
  size_t payload_size = 0;
};

// The frame the writer must reproduce, composed from SerializeEthernet, SerializeIpv4
// and SerializeTcp.
std::vector<uint8_t> ReferenceFrame(const WriterCase& c, uint16_t ip_id,
                                    std::span<const uint8_t> payload, bool fill_checksum) {
  TcpHeader tcp;
  tcp.src_port = 5001;
  tcp.dst_port = 10000;
  tcp.seq = c.fields.seq;
  tcp.ack = c.fields.ack;
  tcp.flags = c.fields.flags;
  tcp.window = c.fields.window;
  tcp.raw_options = c.options;
  tcp.data_offset_words = static_cast<uint8_t>(5 + (c.options.size() + 3) / 4);
  const size_t tcp_offset = kTcpFrameHeaderOffset;
  std::vector<uint8_t> frame(tcp_offset + tcp.HeaderSize());
  SerializeEthernet(EthernetHeader{testutil::ClientMac(), testutil::ServerMac(), kEtherTypeIpv4},
                    frame);
  Ipv4Header ip;
  ip.total_length = static_cast<uint16_t>(kIpv4MinHeaderSize + tcp.HeaderSize() + payload.size());
  ip.identification = ip_id;
  ip.src = testutil::ServerIp();
  ip.dst = testutil::ClientIp();
  SerializeIpv4(ip, std::span<uint8_t>(frame).subspan(kEthernetHeaderSize));
  SerializeTcp(tcp, std::span<uint8_t>(frame).subspan(tcp_offset));
  frame.insert(frame.end(), payload.begin(), payload.end());
  if (fill_checksum) {
    const std::span<const uint8_t> fragments[] = {payload};
    StoreBe16(frame.data() + tcp_offset + 16,
              TcpChecksum(ip.src, ip.dst,
                          std::span<const uint8_t>(frame).subspan(tcp_offset, tcp.HeaderSize()),
                          fragments));
  }
  return frame;
}

TcpOptionBytes TimestampOption(uint32_t value, uint32_t echo) {
  uint8_t ts[kTcpTimestampOptionSize];
  WriteTimestampOption(TcpTimestampOption{value, echo}, ts);
  TcpOptionBytes options;
  options.assign(ts, ts + kTcpTimestampOptionSize);
  return options;
}

std::vector<WriterCase> WriterCases() {
  const TcpOptionBytes handshake = {kTcpOptMss, 4, 0x05, 0xa8, kTcpOptWindowScale, 3, 7,
                                    kTcpOptSackPermitted, 2};
  TcpOptionBytes syn_options = handshake;
  const TcpOptionBytes ts = TimestampOption(0x01020304, 0);
  std::copy(ts.begin(), ts.end(), syn_options.Append(ts.size()).begin());
  TcpOptionBytes sack_options = TimestampOption(777, 0xfffffff0);
  const SackBlock blocks[] = {{5000, 6448}, {8000, 9448}, {0xffff0000, 0x10}};
  AppendSackOption(blocks, sack_options);
  return {
      {"syn", {0x10000000, 0, kTcpSyn, 65535}, syn_options, 0},
      {"syn-ack", {0xfffffff0, 0x10000001, kTcpSyn | kTcpAck, 65535}, syn_options, 0},
      {"data", {0x10000001, 0xfffffff1, kTcpAck | kTcpPsh, 512},
       TimestampOption(0xdeadbeef, 0x12345678), kMssWithTimestamps},
      {"ack-sack", {0xfffffff1, 0x10001000, kTcpAck, 0xffff}, sack_options, 0},
      {"fin", {0x10002000, 0xfffffff1, kTcpFin | kTcpAck, 4096}, TimestampOption(1, 2), 0},
      {"rst", {0x10002001, 0, kTcpRst, 0}, {}, 0},
      {"rst-ack", {0, 0x10002002, kTcpRst | kTcpAck, 0}, {}, 0},
  };
}

TEST(FrameWriter, MatchesTheSerializersByteForByte) {
  const TcpFrameTemplate tmpl =
      MakeTcpFrameTemplate(testutil::ServerMac(), testutil::ClientMac(), testutil::ServerIp(),
                           testutil::ClientIp(), 5001, 10000);
  std::vector<uint8_t> payload(kMssWithTimestamps);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  for (const WriterCase& c : WriterCases()) {
    const std::span<const uint8_t> body = std::span<const uint8_t>(payload).first(c.payload_size);
    for (const bool fill : {true, false}) {
      // ip_id wraps 0xfffe -> 0x0001 so the checksum's end-around carries run.
      for (uint16_t ip_id = 0xfffe; ip_id != 0x0002; ++ip_id) {
        SCOPED_TRACE(testing::Message() << c.name << " fill=" << fill << " ip_id=" << ip_id);
        const std::vector<uint8_t> written = WriteTcpFrame(tmpl, ip_id, c.fields, c.options, body,
                                                           fill);
        EXPECT_EQ(written, ReferenceFrame(c, ip_id, body, fill));
        const auto ip_header = std::span<const uint8_t>(written).subspan(kEthernetHeaderSize,
                                                                         kIpv4MinHeaderSize);
        EXPECT_TRUE(VerifyIpv4Checksum(ip_header));
        const auto segment = std::span<const uint8_t>(written).subspan(kTcpFrameHeaderOffset);
        if (fill) {
          EXPECT_TRUE(VerifyTcpChecksum(testutil::ServerIp(), testutil::ClientIp(), segment));
        } else {
          EXPECT_EQ(LoadBe16(segment.data() + 16), 0);
        }
      }
    }
  }
}

TEST(FrameWriter, WritesIntoRecycledBuffersAsIntoFreshOnes) {
  const TcpFrameTemplate tmpl =
      MakeTcpFrameTemplate(testutil::ServerMac(), testutil::ClientMac(), testutil::ServerIp(),
                           testutil::ClientIp(), 5001, 10000);
  const WriterCase ack{"ack", {0x10000001, 0xfffffff1, kTcpAck, 512},
                       TimestampOption(0x01020304, 0x05060708), 0};
  const std::vector<uint8_t> fresh_ack = ReferenceFrame(ack, 7, {}, true);
  ASSERT_EQ(fresh_ack.size(), 66u);
  const std::vector<uint8_t> payload(kMssWithTimestamps, 0xab);
  const std::vector<uint8_t> fresh_data = ReferenceFrame(ack, 8, payload, true);
  ASSERT_EQ(fresh_data.size(), kFrameBufferCapacity);

  // A small buffer full of stale bytes, which the ACK written after it must not inherit.
  std::vector<uint8_t> stale = TakeFrameBuffer(kSmallFrameBufferCapacity);
  std::fill(stale.begin(), stale.end(), uint8_t{0xcd});
  const uint8_t* small_storage = stale.data();
  RecycleFrameBuffer(std::move(stale));
  // A full-MTU data frame, waiting in the other class.
  std::vector<uint8_t> data =
      WriteTcpFrame(tmpl, 6, ack.fields, ack.options, std::span<const uint8_t>(payload), true);
  ASSERT_EQ(data.size(), kFrameBufferCapacity);
  const uint8_t* full_storage = data.data();
  RecycleFrameBuffer(std::move(data));

  // The ACK takes the small buffer, not the full one it would leave short.
  std::vector<uint8_t> written = WriteTcpFrame(tmpl, 7, ack.fields, ack.options, {}, true);
  EXPECT_EQ(written.data(), small_storage);
  EXPECT_EQ(written, fresh_ack);
  EXPECT_LT(written.capacity(), kFrameBufferCapacity);

  // The next data frame takes the full buffer the last one left.
  data = WriteTcpFrame(tmpl, 8, ack.fields, ack.options, std::span<const uint8_t>(payload), true);
  EXPECT_EQ(data.data(), full_storage);
  EXPECT_EQ(data, fresh_data);

  // A buffer that held an ACK goes back to the small class, and a data frame written
  // after it takes a full buffer.
  RecycleFrameBuffer(std::move(written));
  RecycleFrameBuffer(std::move(data));
  written = WriteTcpFrame(tmpl, 8, ack.fields, ack.options, std::span<const uint8_t>(payload),
                          true);
  EXPECT_EQ(written.data(), full_storage);
  EXPECT_EQ(written, fresh_data);
  data = WriteTcpFrame(tmpl, 7, ack.fields, ack.options, {}, true);
  EXPECT_EQ(data.data(), small_storage);
  EXPECT_EQ(data, fresh_ack);
}

TEST(FrameWriter, LengthOnlyPayloadWritesEveryHeaderByteAndNoPayloadByte) {
  const TcpFrameTemplate tmpl =
      MakeTcpFrameTemplate(testutil::ServerMac(), testutil::ClientMac(), testutil::ServerIp(),
                           testutil::ClientIp(), 5001, 10000);
  // Nine option bytes, so three bytes of END padding follow them.
  const WriterCase data{"data", {0x10000001, 0xfffffff1, kTcpAck | kTcpPsh, 512},
                        {kTcpOptMss, 4, 0x05, 0xa8, kTcpOptWindowScale, 3, 7,
                         kTcpOptSackPermitted, 2},
                        kMssWithTimestamps};
  const std::vector<uint8_t> payload(kMssWithTimestamps, 0xab);
  const std::vector<uint8_t> fresh = ReferenceFrame(data, 9, payload, false);
  const size_t header_size = kTcpFrameHeaderOffset + kTcpMinHeaderSize + 12;

  // A different frame first, in the buffer the length-only frame takes: longer options
  // over what becomes the padding, a different payload over the rest.
  const std::vector<uint8_t> nops(kTcpMaxOptionBytes, kTcpOptNop);
  const std::vector<uint8_t> other_payload(kMssWithTimestamps - 28, 0xcd);
  std::vector<uint8_t> other = WriteTcpFrame(tmpl, 3, {1, 2, kTcpAck | kTcpUrg, 3, 4}, nops,
                                             std::span<const uint8_t>(other_payload), true);
  const uint8_t* storage = other.data();
  RecycleFrameBuffer(std::move(other));

  const uint64_t written_before = thread_harness_counters.payload_bytes_written;
  const std::vector<uint8_t> written =
      WriteTcpFrame(tmpl, 9, data.fields, data.options,
                    TcpPayload::LengthOnly(kMssWithTimestamps), false);
  EXPECT_EQ(thread_harness_counters.payload_bytes_written, written_before);
  EXPECT_EQ(written.data(), storage);
  ASSERT_EQ(written.size(), fresh.size());
  EXPECT_TRUE(std::equal(written.data(), written.data() + header_size, fresh.data()));
  const auto view = ParseTcpFrame(written);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->payload_offset, header_size);
  EXPECT_EQ(view->payload_size, kMssWithTimestamps);

  // The same frame with its bytes written counts them.
  const std::vector<uint8_t> with_bytes =
      WriteTcpFrame(tmpl, 9, data.fields, data.options, std::span<const uint8_t>(payload), false);
  EXPECT_EQ(with_bytes, fresh);
  EXPECT_EQ(thread_harness_counters.payload_bytes_written, written_before + kMssWithTimestamps);
}

TEST(FrameWriter, BuildTcpFrameWritesFromTheSpecsTemplate) {
  FrameOptions options;
  options.ttl = 9;
  options.ip_id = 0xffff;
  const auto frame = MakeFrame(options, 100);
  const auto view = ParseTcpFrame(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ip.ttl, 9);
  EXPECT_EQ(view->ip.identification, 0xffff);
  EXPECT_EQ(view->eth.src, testutil::ClientMac());
  EXPECT_EQ(view->eth.dst, testutil::ServerMac());
  EXPECT_TRUE(VerifyIpv4Checksum(std::span<const uint8_t>(frame).subspan(14, 20)));
}

TEST(FrameWriterDeathTest, TooManyOptionBytesAbort) {
  const TcpFrameTemplate tmpl =
      MakeTcpFrameTemplate(testutil::ServerMac(), testutil::ClientMac(), testutil::ServerIp(),
                           testutil::ClientIp(), 5001, 10000);
  const std::vector<uint8_t> options(kTcpMaxOptionBytes + 1, kTcpOptNop);
  EXPECT_DEATH(WriteTcpFrame(tmpl, 1, {}, options, {}, false), "TCP options exceed 40 bytes");
}

TEST(FrameWriterDeathTest, ChecksumOverALengthOnlyPayloadAborts) {
  const TcpFrameTemplate tmpl =
      MakeTcpFrameTemplate(testutil::ServerMac(), testutil::ClientMac(), testutil::ServerIp(),
                           testutil::ClientIp(), 5001, 10000);
  EXPECT_DEATH(WriteTcpFrame(tmpl, 1, {}, {}, TcpPayload::LengthOnly(10), true),
               "a TCP checksum needs the payload bytes");
}

}  // namespace
}  // namespace tcprx
