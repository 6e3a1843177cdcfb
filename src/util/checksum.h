// Internet checksum (RFC 1071) with incremental update (RFC 1624).
//
// Used for IPv4 header checksums and TCP checksums throughout the stack. Receive
// Aggregation rewrites headers without touching payload bytes, so the incremental
// forms here are what keep aggregation cheap: a header-field rewrite costs O(1)
// checksum work instead of a full recomputation over the packet.

#ifndef SRC_UTIL_CHECKSUM_H_
#define SRC_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace tcprx {

// Partial (unfolded) checksum state: a 64-bit running one's-complement sum that can be
// combined across discontiguous regions before folding.
class ChecksumAccumulator {
 public:
  // Adds `data` to the running sum. `odd_offset` handling: regions must be appended in
  // order; an odd-length region shifts the byte lane of everything that follows, which
  // Add() tracks internally so callers can feed fragment chains directly.
  void Add(std::span<const uint8_t> data);

  // Adds a 16-bit value already in host order (e.g. a length field for a pseudo
  // header).
  void AddWord(uint16_t word);

  // Returns the folded, complemented 16-bit Internet checksum.
  uint16_t Finish() const;

  // Returns the folded but NOT complemented sum (useful for verification, where the
  // sum over data-including-checksum must fold to 0xffff).
  uint16_t FoldedSum() const;

 private:
  void AddWithCarry(uint64_t value);

  uint64_t sum_ = 0;  // one's-complement sum modulo 2^64 - 1
  bool odd_ = false;  // next byte starts at an odd offset
};

// One-shot checksum over a contiguous region.
uint16_t InternetChecksum(std::span<const uint8_t> data);

// RFC 1624 incremental update: given the old checksum of a message and a 16-bit field
// change old_word -> new_word within it, returns the new checksum.
uint16_t ChecksumUpdateWord(uint16_t old_checksum, uint16_t old_word, uint16_t new_word);

// Incremental update for a 32-bit field (e.g. a TCP acknowledgment number).
uint16_t ChecksumUpdateDword(uint16_t old_checksum, uint32_t old_dword, uint32_t new_dword);

}  // namespace tcprx

#endif  // SRC_UTIL_CHECKSUM_H_
