// Out-of-order segment reassembly queue.
//
// Out-of-order packets are one of the cases Receive Aggregation explicitly refuses to
// touch (section 3.6): they bypass the aggregator and land here, in the ordinary TCP
// slow path, unchanged.
//
// Keys are 64-bit *extended* sequence numbers (wire sequence numbers unwrapped by the
// connection), so ordering is plain integer comparison and multi-gigabyte transfers
// never wrap.
//
// Storage is a vector of segments sorted by sequence number. Each segment's bytes sit in
// a recycled frame buffer (src/wire/frame_buffer.h) that goes back to the free list when
// the segment is delivered or dropped, so a warm queue takes and drops segments without
// a heap allocation.

#ifndef SRC_TCP_REASSEMBLY_H_
#define SRC_TCP_REASSEMBLY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/wire/tcp.h"

namespace tcprx {

class ReassemblyQueue {
 public:
  // Stores a copy of the payload bytes beginning at extended sequence `seq`.
  // Overlapping data is merged; already-covered bytes are ignored.
  void Insert(uint64_t seq, std::span<const uint8_t> data);

  // Pops the contiguous run starting at `next_seq`, appending its bytes to `out` and
  // returning the number of bytes consumed.
  size_t PopInOrder(uint64_t next_seq, std::vector<uint8_t>& out);

  // Drops anything wholly below `next_seq` (already delivered via another path).
  void DropBelow(uint64_t next_seq);

  // Writes up to `out.size()` buffered ranges as SACK blocks (the low 32 bits of each
  // [start, end)) and returns how many: the range containing the most recent
  // insertion first (RFC 2018), then the rest ascending.
  size_t SackBlocks(std::span<SackBlock> out) const;

  bool Empty() const { return segments_.empty(); }
  size_t SegmentCount() const { return segments_.size(); }
  size_t BufferedBytes() const { return buffered_bytes_; }

 private:
  struct Segment {
    uint64_t seq = 0;
    std::vector<uint8_t> data;
    uint64_t end() const { return seq + data.size(); }
  };

  // Erases segments [first, last), giving their buffers back to the free list, and
  // returns the position after them.
  std::vector<Segment>::iterator Release(std::vector<Segment>::iterator first,
                                         std::vector<Segment>::iterator last);

  std::vector<Segment> segments_;  // sorted by seq, disjoint
  size_t buffered_bytes_ = 0;
  uint64_t last_insert_seq_ = 0;
};

}  // namespace tcprx

#endif  // SRC_TCP_REASSEMBLY_H_
