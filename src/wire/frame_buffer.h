// Recycled frame buffers.
//
// Frames travel as std::vector<uint8_t> from where they are written (WriteTcpFrame, the
// template-ACK expander, a link duplicating a frame) to where their bytes come to rest:
// the packet pool, which keeps each frame it makes into a packet, never to copy it, and
// returns the buffer that packet held, or a link that drops the frame. Both ends meet in
// the free lists of one thread, so in steady state a frame costs no heap allocation.
//
// There are two size classes, each with its own list: small buffers for ACKs, SYNs,
// RSTs and one-byte request/response frames, and full-MTU buffers for data frames. A
// buffer waits in its list at the size it last had and is handed out with unspecified
// contents, so a full-MTU buffer that held a data frame takes the next one without a
// single byte written for the resize; the writer overwrites what it needs.

#ifndef SRC_WIRE_FRAME_BUFFER_H_
#define SRC_WIRE_FRAME_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tcprx {

// Ethernet header plus a 1500-byte IP MTU: the capacity of a full-MTU buffer.
inline constexpr size_t kFrameBufferCapacity = 1514;
// The capacity of a small buffer, and the largest frame taken from the small list.
inline constexpr size_t kSmallFrameBufferCapacity = 128;

// A buffer of exactly `size` bytes whose contents are unspecified: the caller overwrites
// every byte it relies on. A size up to kSmallFrameBufferCapacity takes a small buffer,
// a larger one a full-MTU buffer (grown past kFrameBufferCapacity when it must be).
std::vector<uint8_t> TakeFrameBuffer(size_t size);

// Returns `buffer` to this thread's list of its class, chosen by its capacity; it is
// freed instead when that list is full or when it cannot hold a small frame.
void RecycleFrameBuffer(std::vector<uint8_t> buffer);

// A copy of `frame` in a recycled buffer.
std::vector<uint8_t> CopyFrame(std::span<const uint8_t> frame);

}  // namespace tcprx

#endif  // SRC_WIRE_FRAME_BUFFER_H_
