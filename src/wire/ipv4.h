// IPv4 header parsing, serialization, and checksum handling.
//
// Receive Aggregation (section 3.1 of the paper) refuses to aggregate packets with IP
// options or IP fragmentation, and verifies the IP checksum of every network packet it
// coalesces; this module supplies those predicates. The checksum is checked once per
// frame, by ParseIpv4 in the same pass that loads the header's fields: each 32-bit word
// is loaded once, decoded and added to the one's-complement sum. ParseTcpFrame
// (src/wire/frame.h) keeps the verdict in TcpFrameView::ip_checksum_ok; the aggregator
// and Ipv4Layer::Validate read it, and the model still charges its cost at both places,
// in the aggr_match and ip_rcv routines.

#ifndef SRC_WIRE_IPV4_H_
#define SRC_WIRE_IPV4_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "src/util/byte_order.h"

namespace tcprx {

inline constexpr size_t kIpv4MinHeaderSize = 20;
inline constexpr uint8_t kIpProtoTcp = 6;

// IPv4 address as a host-order 32-bit value.
struct Ipv4Address {
  uint32_t value = 0;

  bool operator==(const Ipv4Address&) const = default;
  std::string ToString() const;

  static constexpr Ipv4Address FromOctets(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
    return Ipv4Address{(static_cast<uint32_t>(a) << 24) | (static_cast<uint32_t>(b) << 16) |
                       (static_cast<uint32_t>(c) << 8) | d};
  }
};

struct Ipv4Header {
  uint8_t ihl_words = 5;  // header length in 32-bit words; >5 means IP options present
  uint8_t tos = 0;
  uint16_t total_length = 0;  // header + payload, bytes
  uint16_t identification = 0;
  bool dont_fragment = true;
  bool more_fragments = false;
  uint16_t fragment_offset = 0;  // in 8-byte units
  uint8_t ttl = 64;
  uint8_t protocol = kIpProtoTcp;
  uint16_t checksum = 0;  // as parsed; filled in by SerializeIpv4
  Ipv4Address src;
  Ipv4Address dst;

  size_t HeaderSize() const { return static_cast<size_t>(ihl_words) * 4; }
  bool HasOptions() const { return ihl_words > 5; }
  bool IsFragmented() const { return more_fragments || fragment_offset != 0; }
};

// Adds the `words` big-endian 32-bit words at `header` to `sum` and returns the result
// folded to 16 bits: the header's one's-complement sum, 0xffff when its checksum holds.
// Since 2^16 is 1 modulo 0xffff, summing 32-bit words folds to the same value as
// summing the 16-bit words RFC 1071 adds. ParseIpv4 and VerifyIpv4Checksum both sum
// with it.
inline uint16_t Ipv4HeaderFoldedSum(const uint8_t* header, size_t words, uint64_t sum = 0) {
  for (size_t i = 0; i < words; ++i) {
    sum += LoadBe32(header + 4 * i);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(sum);
}

// Parses an IPv4 header at the start of `data` (the IP datagram) into `out` and sets
// `checksum_ok` when the header checksum holds over all `ihl` words; a bad checksum
// still parses. Each word is loaded once, for its fields and for the sum. Returns false
// for truncated input, wrong version, an ihl below the minimum, or a total length
// shorter than the header; `out` and `checksum_ok` are then partly written.
bool ParseIpv4(std::span<const uint8_t> data, Ipv4Header& out, bool& checksum_ok);

// The same parse for tests and cold callers, without the checksum verdict: nullopt
// where the above returns false.
inline std::optional<Ipv4Header> ParseIpv4(std::span<const uint8_t> data) {
  Ipv4Header h;
  bool checksum_ok = false;
  return ParseIpv4(data, h, checksum_ok) ? std::optional<Ipv4Header>(h) : std::nullopt;
}

// Serializes `header` into `out` (>= HeaderSize() bytes) and writes a freshly computed
// header checksum. Option bytes beyond the fixed 20 are zero-filled.
void SerializeIpv4(const Ipv4Header& header, std::span<uint8_t> out);

// Returns true when the checksum over the header bytes folds correctly: `header_bytes`
// is a whole header, at least 20 bytes and a whole number of 32-bit words.
bool VerifyIpv4Checksum(std::span<const uint8_t> header_bytes);

}  // namespace tcprx

#endif  // SRC_WIRE_IPV4_H_
