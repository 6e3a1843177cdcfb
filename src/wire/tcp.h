// TCP header and option parsing/serialization.
//
// The aggregation-eligibility rules of the paper hinge on TCP header details: packets
// qualify only when their option block contains nothing but (padded) timestamps, when
// they carry payload, and when sequence/ack numbers line up. This module exposes those
// properties without committing the caller to any allocation.

#ifndef SRC_WIRE_TCP_H_
#define SRC_WIRE_TCP_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "src/util/logging.h"
#include "src/wire/ipv4.h"

namespace tcprx {

inline constexpr size_t kTcpMinHeaderSize = 20;
inline constexpr size_t kTcpTimestampOptionSize = 12;  // 2 NOPs + kind/len/val/ecr
// Maximum TCP payload per MTU-sized segment when the timestamp option is in use:
// 1500 - 20 (IP) - 20 (TCP) - 12 (timestamp block).
inline constexpr size_t kMssWithTimestamps = 1448;

enum TcpFlag : uint8_t {
  kTcpFin = 0x01,
  kTcpSyn = 0x02,
  kTcpRst = 0x04,
  kTcpPsh = 0x08,
  kTcpAck = 0x10,
  kTcpUrg = 0x20,
};

// TCP option kinds used by the stack.
enum TcpOptionKind : uint8_t {
  kTcpOptEnd = 0,
  kTcpOptNop = 1,
  kTcpOptMss = 2,
  kTcpOptWindowScale = 3,
  kTcpOptSackPermitted = 4,
  kTcpOptSack = 5,
  kTcpOptTimestamp = 8,
};

// A data offset of 15 words leaves 40 bytes for options.
inline constexpr size_t kTcpMaxOptionBytes = 40;

// The option bytes of one TCP header, held inline so that parsing or building a
// header never allocates. It keeps the subset of std::vector<uint8_t> the code uses;
// growing past kTcpMaxOptionBytes aborts.
class TcpOptionBytes {
 public:
  TcpOptionBytes() = default;
  TcpOptionBytes(std::initializer_list<uint8_t> bytes) { assign(bytes.begin(), bytes.end()); }

  size_t size() const { return size_; }
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* begin() { return data(); }
  uint8_t* end() { return data() + size_; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }

  void clear() { size_ = 0; }
  void push_back(uint8_t b) { *Grow(1) = b; }
  // New bytes are zero.
  void resize(size_t n) {
    if (n > size_) {
      uint8_t* first = Grow(n - size_);
      std::fill(first, end(), uint8_t{0});
    } else {
      size_ = static_cast<uint8_t>(n);
    }
  }
  template <typename It>
  void assign(It first, It last) {
    clear();
    insert(end(), first, last);
  }
  template <typename It>
  void insert(const uint8_t* pos, It first, It last) {
    const size_t at = static_cast<size_t>(pos - begin());
    const size_t n = static_cast<size_t>(std::distance(first, last));
    Grow(n);
    std::copy_backward(begin() + at, end() - n, end());
    std::copy(first, last, begin() + at);
  }

  friend bool operator==(const TcpOptionBytes& a, const TcpOptionBytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // Extends the size by `n` and returns the first new byte.
  uint8_t* Grow(size_t n) {
    TCPRX_CHECK_MSG(size_t{size_} + n <= kTcpMaxOptionBytes, "TCP options exceed 40 bytes");
    uint8_t* first = end();
    size_ = static_cast<uint8_t>(size_ + n);
    return first;
  }

  std::array<uint8_t, kTcpMaxOptionBytes> bytes_{};
  uint8_t size_ = 0;
};

struct TcpTimestampOption {
  uint32_t value = 0;
  uint32_t echo_reply = 0;
};

struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t data_offset_words = 5;  // header length in 32-bit words, including options
  uint8_t flags = 0;
  uint16_t window = 0;
  uint16_t checksum = 0;
  uint16_t urgent_pointer = 0;

  // Parsed options. `raw_options` preserves the original bytes so a header can be
  // reserialized without normalizing the padding layout.
  std::optional<TcpTimestampOption> timestamp;
  std::optional<uint16_t> mss;
  std::optional<uint8_t> window_scale;
  bool sack_permitted = false;
  bool has_sack_blocks = false;
  bool has_unknown_option = false;
  TcpOptionBytes raw_options;

  size_t HeaderSize() const { return static_cast<size_t>(data_offset_words) * 4; }
  bool Has(TcpFlag f) const { return (flags & f) != 0; }

  // True when the option block contains nothing but NOP/END padding and (optionally)
  // one timestamp option — the only option layout Receive Aggregation accepts.
  bool OptionsOnlyTimestamp() const {
    return !has_sack_blocks && !has_unknown_option && !mss.has_value() &&
           !window_scale.has_value() && !sack_permitted;
  }
};

// Parses a TCP header (with options) at the start of `segment`. Returns nullopt for
// truncated input or a data offset below the minimum / beyond the segment.
std::optional<TcpHeader> ParseTcp(std::span<const uint8_t> segment);

// Serializes `header` into `out` (>= HeaderSize() bytes). The checksum field is
// written as-is from `header.checksum`; compute it first via TcpChecksum when needed.
// Options come from `raw_options`, padded with END bytes to the data offset.
void SerializeTcp(const TcpHeader& header, std::span<uint8_t> out);

// Computes the TCP checksum over pseudo header + TCP header + payload fragments.
// `tcp_header_bytes` must have the checksum field zeroed (offset 16..17).
uint16_t TcpChecksum(Ipv4Address src, Ipv4Address dst, std::span<const uint8_t> tcp_header_bytes,
                     std::span<const std::span<const uint8_t>> payload_fragments);

// Verifies the end-to-end TCP checksum of a contiguous segment (header + payload).
bool VerifyTcpChecksum(Ipv4Address src, Ipv4Address dst, std::span<const uint8_t> segment);

// Builds the canonical 12-byte timestamp option block (NOP NOP kind len val ecr).
void WriteTimestampOption(const TcpTimestampOption& ts, std::span<uint8_t> out);

// A SACK block: [start, end) in wire sequence numbers (RFC 2018).
struct SackBlock {
  uint32_t start = 0;
  uint32_t end = 0;
  bool operator==(const SackBlock&) const = default;
};

// Extracts the SACK blocks from a raw option byte string (empty if none/malformed).
std::vector<SackBlock> ParseSackBlocks(std::span<const uint8_t> options);

// Appends a padded SACK option (NOP NOP kind len blocks...) for up to 3 blocks.
void AppendSackOption(std::span<const SackBlock> blocks, TcpOptionBytes& options);

}  // namespace tcprx

#endif  // SRC_WIRE_TCP_H_
