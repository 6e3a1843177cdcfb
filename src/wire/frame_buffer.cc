#include "src/wire/frame_buffer.h"

#include <algorithm>
#include <utility>

#include "src/util/poison.h"

namespace tcprx {

namespace {

// Enough for the frames a busy testbed keeps in flight between writer and packet pool:
// about 0.8 MB of idle buffers per thread at the standard MTU.
constexpr size_t kMaxCachedBuffers = 512;

struct FreeList {
  FreeList() { buffers.reserve(kMaxCachedBuffers); }
  ~FreeList() {
    for (const std::vector<uint8_t>& buffer : buffers) {
      UnpoisonRecycled(buffer.data(), buffer.capacity());
    }
  }
  std::vector<std::vector<uint8_t>> buffers;
};

// tcprx_bench runs its points on worker threads: each keeps its own list.
thread_local FreeList free_list;

}  // namespace

std::vector<uint8_t> TakeFrameBuffer(size_t size) {
  std::vector<uint8_t> buffer;
  if (!free_list.buffers.empty()) {
    buffer = std::move(free_list.buffers.back());
    free_list.buffers.pop_back();
    UnpoisonRecycled(buffer.data(), buffer.capacity());
  }
  buffer.reserve(std::max(size, kFrameBufferCapacity));
  return buffer;
}

void RecycleFrameBuffer(std::vector<uint8_t> buffer) {
  if (buffer.capacity() < kFrameBufferCapacity ||
      free_list.buffers.size() == kMaxCachedBuffers) {
    return;
  }
  buffer.clear();
  PoisonRecycled(buffer.data(), buffer.capacity());
  free_list.buffers.push_back(std::move(buffer));
}

std::vector<uint8_t> CopyFrame(std::span<const uint8_t> frame) {
  std::vector<uint8_t> copy = TakeFrameBuffer(frame.size());
  copy.assign(frame.begin(), frame.end());
  return copy;
}

}  // namespace tcprx
