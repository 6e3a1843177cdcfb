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

bool ParseIpv4(std::span<const uint8_t> data, Ipv4Header& out, bool& checksum_ok) {
  if (data.size() < kIpv4MinHeaderSize) {
    return false;
  }
  // The five fixed words, each loaded once: decoded below and summed for the checksum.
  const uint8_t* p = data.data();
  const uint32_t w0 = LoadBe32(p);
  const uint32_t w1 = LoadBe32(p + 4);
  const uint32_t w2 = LoadBe32(p + 8);
  const uint32_t w3 = LoadBe32(p + 12);
  const uint32_t w4 = LoadBe32(p + 16);
  const uint8_t version = static_cast<uint8_t>(w0 >> 28);
  const uint8_t ihl = static_cast<uint8_t>((w0 >> 24) & 0x0f);
  if (version != 4 || ihl < 5 || data.size() < static_cast<size_t>(ihl) * 4) {
    return false;
  }
  out.ihl_words = ihl;
  out.tos = static_cast<uint8_t>(w0 >> 16);
  out.total_length = static_cast<uint16_t>(w0);
  out.identification = static_cast<uint16_t>(w1 >> 16);
  out.dont_fragment = (w1 & 0x4000) != 0;
  out.more_fragments = (w1 & 0x2000) != 0;
  out.fragment_offset = static_cast<uint16_t>(w1 & 0x1fff);
  out.ttl = static_cast<uint8_t>(w2 >> 24);
  out.protocol = static_cast<uint8_t>(w2 >> 16);
  out.checksum = static_cast<uint16_t>(w2);
  out.src.value = w3;
  out.dst.value = w4;
  // Option words, if any, are loaded only for the sum.
  checksum_ok = Ipv4HeaderFoldedSum(p + kIpv4MinHeaderSize, ihl - 5,
                                    uint64_t{w0} + w1 + w2 + w3 + w4) == 0xffff;
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
  if (header_bytes.size() < kIpv4MinHeaderSize || header_bytes.size() % 4 != 0) {
    return false;
  }
  return Ipv4HeaderFoldedSum(header_bytes.data(), header_bytes.size() / 4) == 0xffff;
}

}  // namespace tcprx
