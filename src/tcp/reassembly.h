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
// Storage is a vector of segments sorted by sequence number. Each segment keeps the
// frame it arrived in, as Linux's out-of-order queue keeps the sk_buff, and views the
// part of its payload no other segment holds: an overlap narrows the view, never copies.
// A popped run leaves the queue the same way: its segments move out whole, and the
// caller reads the run's bytes in the frames they arrived in. An erased or released
// segment's frame goes back to its packet pool.

#ifndef SRC_TCP_REASSEMBLY_H_
#define SRC_TCP_REASSEMBLY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/buffer/packet.h"
#include "src/wire/tcp.h"

namespace tcprx {

class ReassemblyQueue {
 public:
  // Takes the frame whose payload begins at extended sequence `seq`. Overlapping data
  // is merged; already-covered bytes are ignored (a wholly covered frame is released).
  void Insert(uint64_t seq, PacketPtr frame);

  // A queued or popped segment: the frame it arrived in and the bytes only it holds.
  struct Segment {
    uint64_t seq = 0;
    PacketPtr frame;                // owns the bytes `data` views
    std::span<const uint8_t> data;  // the queued part of the frame's payload
    uint64_t end() const { return seq + data.size(); }
  };

  // Takes the contiguous run starting at `next_seq` out of the queue, without copying a
  // byte, and returns its length; drops the segments wholly below `next_seq` (already
  // delivered by another path). The run stays readable through run() until
  // ReleaseRun(), which must come before the next pop.
  size_t PopInOrder(uint64_t next_seq);
  // The popped run in sequence order, each segment's `data` narrowed to the bytes it
  // adds past `next_seq`.
  std::span<const Segment> run() const { return run_; }
  // Gives the popped run's frames back to their pools, keeping the run's storage.
  void ReleaseRun() { run_.clear(); }

  // Writes up to `out.size()` buffered ranges as SACK blocks (the low 32 bits of each
  // [start, end)) and returns how many: the range containing the most recent
  // insertion first (RFC 2018), then the rest ascending.
  size_t SackBlocks(std::span<SackBlock> out) const;

  bool Empty() const { return segments_.empty(); }
  size_t SegmentCount() const { return segments_.size(); }
  size_t BufferedBytes() const;

 private:
  std::vector<Segment> segments_;  // sorted by seq, disjoint
  std::vector<Segment> run_;       // the popped run, until ReleaseRun
  uint64_t last_insert_seq_ = 0;
};

}  // namespace tcprx

#endif  // SRC_TCP_REASSEMBLY_H_
