#include "src/wire/tcp.h"

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/harness_counters.h"
#include "src/util/logging.h"

namespace tcprx {

namespace {

// Resets the parsed-option fields, then walks the option block filling them. Returns
// false on a malformed block (bad lengths). The aligned timestamp block (RFC 7323
// Appendix A), which every timestamped segment the stack writes begins with, is
// recognised by one 32-bit compare at the top of the walk, as Linux's
// tcp_fast_parse_options does; the walk goes on after it, so whatever follows the block
// (SACK blocks on an ACK, say) parses as it would without the compare.
bool ParseOptions(std::span<const uint8_t> options, TcpHeader& h) {
  h.timestamp.reset();
  h.timestamp_offset = 0;
  h.mss.reset();
  h.window_scale.reset();
  h.sack_permitted = false;
  h.has_sack_blocks = false;
  h.has_unknown_option = false;
  size_t i = 0;
  if (options.size() >= kTcpTimestampOptionSize &&
      LoadBe32(options.data()) == kTcpAlignedTimestampWord) {
    h.timestamp = TcpTimestampOption{LoadBe32(options.data() + 4), LoadBe32(options.data() + 8)};
    h.timestamp_offset = 2;
    i = kTcpTimestampOptionSize;
  }
  while (i < options.size()) {
    const uint8_t kind = options[i];
    if (kind == kTcpOptEnd) {
      break;
    }
    if (kind == kTcpOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= options.size()) {
      return false;
    }
    const uint8_t len = options[i + 1];
    if (len < 2 || i + len > options.size()) {
      return false;
    }
    switch (kind) {
      case kTcpOptMss:
        if (len != 4) {
          return false;
        }
        h.mss = LoadBe16(options.data() + i + 2);
        break;
      case kTcpOptWindowScale:
        if (len != 3) {
          return false;
        }
        h.window_scale = options[i + 2];
        break;
      case kTcpOptSackPermitted:
        if (len != 2) {
          return false;
        }
        h.sack_permitted = true;
        break;
      case kTcpOptSack:
        h.has_sack_blocks = true;
        break;
      case kTcpOptTimestamp:
        if (len != 10) {
          return false;
        }
        h.timestamp = TcpTimestampOption{LoadBe32(options.data() + i + 2),
                                         LoadBe32(options.data() + i + 6)};
        h.timestamp_offset = static_cast<uint8_t>(i);
        break;
      default:
        h.has_unknown_option = true;
        break;
    }
    i += len;
  }
  return true;
}

// One pass of the TCP checksum: an accumulator holding the IPv4 pseudo-header of a
// segment of `tcp_length` bytes, ready for the segment's own bytes.
ChecksumAccumulator StartTcpChecksumPass(Ipv4Address src, Ipv4Address dst, size_t tcp_length) {
  ++thread_harness_counters.tcp_checksum_passes;
  ChecksumAccumulator acc;
  acc.AddWord(static_cast<uint16_t>(src.value >> 16));
  acc.AddWord(static_cast<uint16_t>(src.value & 0xffff));
  acc.AddWord(static_cast<uint16_t>(dst.value >> 16));
  acc.AddWord(static_cast<uint16_t>(dst.value & 0xffff));
  acc.AddWord(kIpProtoTcp);
  acc.AddWord(static_cast<uint16_t>(tcp_length));
  return acc;
}

}  // namespace

bool ParseTcp(std::span<const uint8_t> segment, TcpHeader& out) {
  if (segment.size() < kTcpMinHeaderSize) {
    return false;
  }
  // The five fixed words, each loaded once.
  const uint8_t* p = segment.data();
  const uint32_t ports = LoadBe32(p);
  const uint32_t seq = LoadBe32(p + 4);
  const uint32_t ack = LoadBe32(p + 8);
  const uint32_t offset_flags_window = LoadBe32(p + 12);
  const uint32_t checksum_urgent = LoadBe32(p + 16);
  const uint8_t data_offset_words = static_cast<uint8_t>(offset_flags_window >> 28);
  const size_t hsize = static_cast<size_t>(data_offset_words) * 4;
  if (hsize < kTcpMinHeaderSize || hsize > segment.size()) {
    return false;
  }
  out.data_offset_words = data_offset_words;
  out.src_port = static_cast<uint16_t>(ports >> 16);
  out.dst_port = static_cast<uint16_t>(ports);
  out.seq = seq;
  out.ack = ack;
  out.flags = static_cast<uint8_t>((offset_flags_window >> 16) & 0x3f);
  out.window = static_cast<uint16_t>(offset_flags_window);
  out.checksum = static_cast<uint16_t>(checksum_urgent >> 16);
  out.urgent_pointer = static_cast<uint16_t>(checksum_urgent);
  const auto options = segment.subspan(kTcpMinHeaderSize, hsize - kTcpMinHeaderSize);
  out.raw_options.assign(options.begin(), options.end());
  return ParseOptions(options, out);
}

void SerializeTcp(const TcpHeader& header, std::span<uint8_t> out) {
  const size_t hsize = header.HeaderSize();
  TCPRX_CHECK(out.size() >= hsize);
  TCPRX_CHECK(kTcpMinHeaderSize + header.raw_options.size() <= hsize);
  StoreBe16(out.data(), header.src_port);
  StoreBe16(out.data() + 2, header.dst_port);
  StoreBe32(out.data() + 4, header.seq);
  StoreBe32(out.data() + 8, header.ack);
  out[12] = static_cast<uint8_t>(header.data_offset_words << 4);
  out[13] = header.flags;
  StoreBe16(out.data() + 14, header.window);
  StoreBe16(out.data() + 16, header.checksum);
  StoreBe16(out.data() + 18, header.urgent_pointer);
  std::copy(header.raw_options.begin(), header.raw_options.end(),
            out.begin() + kTcpMinHeaderSize);
  for (size_t i = kTcpMinHeaderSize + header.raw_options.size(); i < hsize; ++i) {
    out[i] = kTcpOptEnd;
  }
}

uint16_t TcpChecksum(Ipv4Address src, Ipv4Address dst, std::span<const uint8_t> tcp_header_bytes,
                     std::span<const std::span<const uint8_t>> payload_fragments) {
  size_t tcp_length = tcp_header_bytes.size();
  for (const auto& frag : payload_fragments) {
    tcp_length += frag.size();
  }
  ChecksumAccumulator acc = StartTcpChecksumPass(src, dst, tcp_length);
  acc.Add(tcp_header_bytes);
  for (const auto& frag : payload_fragments) {
    acc.Add(frag);
  }
  return acc.Finish();
}

bool VerifyTcpChecksum(Ipv4Address src, Ipv4Address dst, std::span<const uint8_t> segment) {
  ChecksumAccumulator acc = StartTcpChecksumPass(src, dst, segment.size());
  if (segment.size() < kTcpMinHeaderSize) {
    return false;
  }
  acc.Add(segment);
  return acc.FoldedSum() == 0xffff;
}

std::vector<SackBlock> ParseSackBlocks(std::span<const uint8_t> options) {
  std::vector<SackBlock> blocks;
  size_t i = 0;
  while (i < options.size()) {
    const uint8_t kind = options[i];
    if (kind == kTcpOptEnd) {
      break;
    }
    if (kind == kTcpOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= options.size()) {
      break;
    }
    const uint8_t len = options[i + 1];
    if (len < 2 || i + len > options.size()) {
      break;
    }
    if (kind == kTcpOptSack && len >= 10 && (len - 2) % 8 == 0) {
      for (size_t b = i + 2; b + 8 <= i + len; b += 8) {
        blocks.push_back(SackBlock{LoadBe32(options.data() + b),
                                   LoadBe32(options.data() + b + 4)});
      }
    }
    i += len;
  }
  return blocks;
}

void AppendSackOption(std::span<const SackBlock> blocks, TcpOptionBytes& options) {
  const size_t n = blocks.size() < 3 ? blocks.size() : 3;
  if (n == 0) {
    return;
  }
  options.push_back(kTcpOptNop);
  options.push_back(kTcpOptNop);
  options.push_back(kTcpOptSack);
  options.push_back(static_cast<uint8_t>(2 + 8 * n));
  for (size_t i = 0; i < n; ++i) {
    uint8_t* const block = options.Append(8).data();
    StoreBe32(block, blocks[i].start);
    StoreBe32(block + 4, blocks[i].end);
  }
}

void WriteTimestampOption(const TcpTimestampOption& ts, std::span<uint8_t> out) {
  TCPRX_CHECK(out.size() >= kTcpTimestampOptionSize);
  out[0] = kTcpOptNop;
  out[1] = kTcpOptNop;
  out[2] = kTcpOptTimestamp;
  out[3] = 10;
  StoreBe32(out.data() + 4, ts.value);
  StoreBe32(out.data() + 8, ts.echo_reply);
}

}  // namespace tcprx
