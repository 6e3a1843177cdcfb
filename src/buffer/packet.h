// Raw network packet buffers and their pool.
//
// A Packet is the wire frame as the (simulated) NIC DMA'd it into memory, plus its
// one parse and the checksum-offload verdict the NIC attaches. The pool parses a frame
// once, when it makes the packet, and every later reader (NIC checksum offload, the
// aggregator's early demux, the stack) uses that view instead of decoding the headers
// again. Packets are recycled through a PacketPool so that a warm pool makes no heap
// allocation. The pool's Stats are read only by tests and by its teardown leak check:
// the buffer alloc/free cycles the paper attributes to each packet are kCosts charges
// that each layer makes where Linux would do that work, not counts taken from here.

#ifndef SRC_BUFFER_PACKET_H_
#define SRC_BUFFER_PACKET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/wire/frame.h"

namespace tcprx {

class PacketPool;

struct Packet {
  std::vector<uint8_t> data;  // full frame bytes, Ethernet header first

  // The frame parsed as Ethernet/IPv4/TCP when the pool made the packet, with its IPv4
  // header checksum verdict; nullopt when it is not a TCP/IPv4 frame. Whoever rewrites
  // header bytes in place writes the same fields here (the aggregator's header rewrite).
  std::optional<TcpFrameView> view;

  // Parses `data` into `view` in place, reusing the view a recycled packet already
  // holds; a frame that does not parse as TCP/IPv4 leaves it empty.
  void Parse();

  bool nic_checksum_verified = false;  // rx checksum offload says the TCP csum is good

  std::span<const uint8_t> Bytes() const { return data; }
  std::span<uint8_t> MutableBytes() { return data; }

  // The TCP payload as the view describes it. Requires a view.
  std::span<const uint8_t> Payload() const {
    return Bytes().subspan(view->payload_offset, view->payload_size);
  }

 private:
  // Only the pool makes packets, so every packet has one to return to.
  friend class PacketPool;
  friend struct PacketReturner;
  Packet() = default;
  PacketPool* origin_pool_ = nullptr;
};

// Deleter that returns a Packet to the pool that made it.
struct PacketReturner {
  void operator()(Packet* p) const;
};

using PacketPtr = std::unique_ptr<Packet, PacketReturner>;

// Freelist allocator for Packet objects. Every allocation parses the frame into
// Packet::view.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  // Returns a packet that takes ownership of `frame` without copying. The buffer the
  // recycled packet held before goes back to the frame-buffer free list. A caller that
  // holds only a view of its frame passes CopyFrame(bytes), a recycled buffer.
  PacketPtr AllocateMoved(std::vector<uint8_t>&& frame);

  struct Stats {
    uint64_t allocations = 0;
    uint64_t frees = 0;
    uint64_t live = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend struct PacketReturner;
  void Return(Packet* p);
  PacketPtr Take();

  std::vector<Packet*> free_list_;
  Stats stats_;
};

}  // namespace tcprx

#endif  // SRC_BUFFER_PACKET_H_
