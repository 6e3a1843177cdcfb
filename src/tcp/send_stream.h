// Send-side byte stream.
//
// Holds unacknowledged application data addressed by absolute 64-bit stream offset
// (offset 0 = first payload byte after the SYN). Two sources can feed it: explicit
// application writes (examples, latency tests) and a synthetic deterministic pattern
// (bulk benchmarks, where materializing gigabytes would be wasteful). The pattern is a
// pure function of the offset, so a receiver can verify payload integrity at any
// aggregation setting without the sender storing anything.
//
// The pattern is periodic: byte o is a hash of o mod kPatternPeriod, and the first
// period holds the hash the unperiodic pattern used. The period is a prime above
// 4 x 64 KiB, so a delivery shifted by fewer than kPatternPeriod segments of any MSS,
// by a 16- or 32-bit sequence wrap, or by up to 256 KiB lands elsewhere in the period.
// The bytes live in a read-only table that repeats kMaxPatternView bytes past one
// period, so a synthetic View is a slice of it and the sender copies payload straight
// into the frame.

#ifndef SRC_TCP_SEND_STREAM_H_
#define SRC_TCP_SEND_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tcprx {

inline constexpr uint64_t kPatternPeriod = 262147;
// Longest View of a synthetic stream: enough for any segment (an MSS is at most
// 65455 bytes).
inline constexpr size_t kMaxPatternView = 65536;

// The pattern bytes for offsets [0, kPatternPeriod + kMaxPatternView), computed at
// compile time in send_stream.cc.
struct PatternTable {
  uint8_t bytes[kPatternPeriod + kMaxPatternView];
};
extern const PatternTable kPatternTable;

class SendStream {
 public:
  // Appends explicit application bytes. Not allowed after SetSynthetic.
  void Append(std::span<const uint8_t> data);

  // Switches to a synthetic source that provides `total_bytes` pattern bytes
  // (UINT64_MAX = effectively infinite). Must be called before any Append.
  void SetSynthetic(uint64_t total_bytes);

  // Total bytes the application has made available (monotonic).
  uint64_t EndOffset() const { return end_offset_; }

  // Bytes available at and beyond `offset`.
  uint64_t AvailableFrom(uint64_t offset) const {
    return offset >= end_offset_ ? 0 : end_offset_ - offset;
  }

  // Stream bytes [offset, offset+len), by reference. The range must be available and
  // not yet released, and a synthetic read is at most kMaxPatternView bytes. The span
  // stays valid until the next Append or ReleaseThrough.
  std::span<const uint8_t> View(uint64_t offset, size_t len) const;

  // Copies stream bytes [offset, offset+out.size()) into `out`, as View.
  void CopyOut(uint64_t offset, std::span<uint8_t> out) const;

  // Releases (frees) all bytes below `offset` — they have been cumulatively ACKed.
  void ReleaseThrough(uint64_t offset);

  uint64_t released_offset() const { return released_offset_; }
  bool synthetic() const { return synthetic_; }

  // The deterministic pattern byte at a given stream offset.
  static uint8_t PatternByte(uint64_t offset) {
    return kPatternTable.bytes[offset % kPatternPeriod];
  }

 private:
  bool synthetic_ = false;
  uint64_t end_offset_ = 0;
  uint64_t released_offset_ = 0;
  // Explicit bytes from stream offset buffer_base_ on. The released prefix is erased
  // once it is at least half the buffer, so a release costs amortized O(1).
  uint64_t buffer_base_ = 0;
  std::vector<uint8_t> buffer_;
};

}  // namespace tcprx

#endif  // SRC_TCP_SEND_STREAM_H_
