#include "src/wire/tcp.h"

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/logging.h"

namespace tcprx {

namespace {

// Walks the option block, filling the parsed-option fields. Returns false on a
// malformed block (bad lengths).
bool ParseOptions(std::span<const uint8_t> options, TcpHeader& h) {
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
        break;
      default:
        h.has_unknown_option = true;
        break;
    }
    i += len;
  }
  return true;
}

}  // namespace

std::optional<TcpHeader> ParseTcp(std::span<const uint8_t> segment) {
  if (segment.size() < kTcpMinHeaderSize) {
    return std::nullopt;
  }
  TcpHeader h;
  h.src_port = LoadBe16(segment.data());
  h.dst_port = LoadBe16(segment.data() + 2);
  h.seq = LoadBe32(segment.data() + 4);
  h.ack = LoadBe32(segment.data() + 8);
  h.data_offset_words = segment[12] >> 4;
  h.flags = segment[13] & 0x3f;
  h.window = LoadBe16(segment.data() + 14);
  h.checksum = LoadBe16(segment.data() + 16);
  h.urgent_pointer = LoadBe16(segment.data() + 18);
  const size_t hsize = h.HeaderSize();
  if (hsize < kTcpMinHeaderSize || hsize > segment.size()) {
    return std::nullopt;
  }
  const auto options = segment.subspan(kTcpMinHeaderSize, hsize - kTcpMinHeaderSize);
  h.raw_options.assign(options.begin(), options.end());
  if (!ParseOptions(options, h)) {
    return std::nullopt;
  }
  return h;
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
  ChecksumAccumulator acc;
  acc.AddWord(static_cast<uint16_t>(src.value >> 16));
  acc.AddWord(static_cast<uint16_t>(src.value & 0xffff));
  acc.AddWord(static_cast<uint16_t>(dst.value >> 16));
  acc.AddWord(static_cast<uint16_t>(dst.value & 0xffff));
  acc.AddWord(kIpProtoTcp);
  acc.AddWord(static_cast<uint16_t>(tcp_length));
  acc.Add(tcp_header_bytes);
  for (const auto& frag : payload_fragments) {
    acc.Add(frag);
  }
  return acc.Finish();
}

bool VerifyTcpChecksum(Ipv4Address src, Ipv4Address dst, std::span<const uint8_t> segment) {
  if (segment.size() < kTcpMinHeaderSize) {
    return false;
  }
  ChecksumAccumulator acc;
  acc.AddWord(static_cast<uint16_t>(src.value >> 16));
  acc.AddWord(static_cast<uint16_t>(src.value & 0xffff));
  acc.AddWord(static_cast<uint16_t>(dst.value >> 16));
  acc.AddWord(static_cast<uint16_t>(dst.value & 0xffff));
  acc.AddWord(kIpProtoTcp);
  acc.AddWord(static_cast<uint16_t>(segment.size()));
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
    const size_t at = options.size();
    options.resize(at + 8);
    StoreBe32(options.data() + at, blocks[i].start);
    StoreBe32(options.data() + at + 4, blocks[i].end);
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
