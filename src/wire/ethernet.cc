#include "src/wire/ethernet.h"

#include <cstdio>
#include <cstring>

#include "src/util/byte_order.h"
#include "src/util/logging.h"

namespace tcprx {

std::string MacAddress::ToString() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0], bytes[1], bytes[2],
                bytes[3], bytes[4], bytes[5]);
  return buf;
}

bool ParseEthernet(std::span<const uint8_t> frame, EthernetHeader& out) {
  if (frame.size() < kEthernetHeaderSize) {
    return false;
  }
  std::memcpy(out.dst.bytes.data(), frame.data(), out.dst.bytes.size());
  std::memcpy(out.src.bytes.data(), frame.data() + 6, out.src.bytes.size());
  out.ether_type = LoadBe16(frame.data() + 12);
  return true;
}

void SerializeEthernet(const EthernetHeader& header, std::span<uint8_t> out) {
  TCPRX_CHECK(out.size() >= kEthernetHeaderSize);
  std::copy(header.dst.bytes.begin(), header.dst.bytes.end(), out.begin());
  std::copy(header.src.bytes.begin(), header.src.bytes.end(), out.begin() + 6);
  StoreBe16(out.data() + 12, header.ether_type);
}

}  // namespace tcprx
