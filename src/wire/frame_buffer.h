// Recycled frame buffers.
//
// Frames travel as std::vector<uint8_t> from where they are written (WriteTcpFrame, the
// template-ACK expander, a link duplicating a frame) to where their bytes come to rest:
// the packet pool, which keeps each frame it makes into a packet and gives back the
// buffer that packet held before, or a link that drops the frame. Both ends meet in one
// free list per thread, so in steady state a frame costs no heap allocation. Every
// buffer the list hands out holds at least one full-MTU frame, so a buffer that last
// carried an ACK takes a data frame without growing.

#ifndef SRC_WIRE_FRAME_BUFFER_H_
#define SRC_WIRE_FRAME_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tcprx {

// Ethernet header plus a 1500-byte IP MTU.
inline constexpr size_t kFrameBufferCapacity = 1514;

// An empty buffer with capacity for at least max(size, kFrameBufferCapacity) bytes.
std::vector<uint8_t> TakeFrameBuffer(size_t size = 0);

// Returns `buffer` to this thread's free list; it is freed instead when the list is full
// or when it is too small to hold a full-MTU frame.
void RecycleFrameBuffer(std::vector<uint8_t> buffer);

// A copy of `frame` in a recycled buffer.
std::vector<uint8_t> CopyFrame(std::span<const uint8_t> frame);

}  // namespace tcprx

#endif  // SRC_WIRE_FRAME_BUFFER_H_
