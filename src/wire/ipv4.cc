#include "src/wire/ipv4.h"

#include <cstdio>

#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/util/harness_counters.h"
#include "src/util/logging.h"

namespace tcprx {

std::string Ipv4Address::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xff, (value >> 16) & 0xff,
                (value >> 8) & 0xff, value & 0xff);
  return buf;
}

bool ParseIpv4(std::span<const uint8_t> data, Ipv4Header& out) {
  if (data.size() < kIpv4MinHeaderSize) {
    return false;
  }
  const uint8_t version = data[0] >> 4;
  const uint8_t ihl = data[0] & 0x0f;
  if (version != 4 || ihl < 5 || data.size() < static_cast<size_t>(ihl) * 4) {
    return false;
  }
  out.ihl_words = ihl;
  out.tos = data[1];
  out.total_length = LoadBe16(data.data() + 2);
  out.identification = LoadBe16(data.data() + 4);
  const uint16_t flags_frag = LoadBe16(data.data() + 6);
  out.dont_fragment = (flags_frag & 0x4000) != 0;
  out.more_fragments = (flags_frag & 0x2000) != 0;
  out.fragment_offset = flags_frag & 0x1fff;
  out.ttl = data[8];
  out.protocol = data[9];
  out.checksum = LoadBe16(data.data() + 10);
  out.src.value = LoadBe32(data.data() + 12);
  out.dst.value = LoadBe32(data.data() + 16);
  return out.total_length >= out.HeaderSize();
}

void SerializeIpv4(const Ipv4Header& header, std::span<uint8_t> out) {
  const size_t hsize = header.HeaderSize();
  TCPRX_CHECK(out.size() >= hsize);
  out[0] = static_cast<uint8_t>(0x40 | header.ihl_words);
  out[1] = header.tos;
  StoreBe16(out.data() + 2, header.total_length);
  StoreBe16(out.data() + 4, header.identification);
  uint16_t flags_frag = header.fragment_offset;
  if (header.dont_fragment) {
    flags_frag |= 0x4000;
  }
  if (header.more_fragments) {
    flags_frag |= 0x2000;
  }
  StoreBe16(out.data() + 6, flags_frag);
  out[8] = header.ttl;
  out[9] = header.protocol;
  StoreBe16(out.data() + 10, 0);  // checksum computed below
  StoreBe32(out.data() + 12, header.src.value);
  StoreBe32(out.data() + 16, header.dst.value);
  for (size_t i = kIpv4MinHeaderSize; i < hsize; ++i) {
    out[i] = 0;
  }
  const uint16_t csum = InternetChecksum(out.first(hsize));
  StoreBe16(out.data() + 10, csum);
}

bool VerifyIpv4Checksum(std::span<const uint8_t> header_bytes) {
  ++thread_harness_counters.ipv4_header_checks;
  if (header_bytes.size() < kIpv4MinHeaderSize) {
    return false;
  }
  ChecksumAccumulator acc;
  acc.Add(header_bytes);
  return acc.FoldedSum() == 0xffff;
}

}  // namespace tcprx
