// Ethernet II framing.
//
// Frames in the simulator carry real header bytes end to end: the driver, the Receive
// Aggregation engine and the TCP/IP layers all parse and rewrite genuine wire-format
// packets, so header-manipulation bugs are observable in tests.

#ifndef SRC_WIRE_ETHERNET_H_
#define SRC_WIRE_ETHERNET_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace tcprx {

inline constexpr size_t kEthernetHeaderSize = 14;
inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
// Standard Ethernet MTU: the maximum IP datagram size per frame. The paper's bulk
// receive workloads are all MTU-sized (1500-byte) packets.
inline constexpr size_t kEthernetMtu = 1500;

struct MacAddress {
  std::array<uint8_t, 6> bytes{};

  bool operator==(const MacAddress&) const = default;
  std::string ToString() const;

  // Convenience constructor for tests/examples: last byte distinguishes hosts.
  static MacAddress FromHostId(uint8_t id) {
    return MacAddress{{0x02, 0x00, 0x00, 0x00, 0x00, id}};
  }
};

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  uint16_t ether_type = kEtherTypeIpv4;
};

// Parses the 14-byte Ethernet header at the start of `frame` into `out`. Returns false
// when the frame is too short.
bool ParseEthernet(std::span<const uint8_t> frame, EthernetHeader& out);

// The same parse for tests and cold callers: nullopt when the frame is too short.
inline std::optional<EthernetHeader> ParseEthernet(std::span<const uint8_t> frame) {
  EthernetHeader h;
  return ParseEthernet(frame, h) ? std::optional<EthernetHeader>(h) : std::nullopt;
}

// Serializes `header` into the first 14 bytes of `out` (which must be large enough).
void SerializeEthernet(const EthernetHeader& header, std::span<uint8_t> out);

}  // namespace tcprx

#endif  // SRC_WIRE_ETHERNET_H_
