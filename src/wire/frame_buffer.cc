#include "src/wire/frame_buffer.h"

#include <algorithm>
#include <utility>

#include "src/util/harness_counters.h"
#include "src/util/poison.h"

namespace tcprx {

namespace {

// Enough for the frames a busy testbed keeps in flight between writer and packet pool:
// about 0.8 MB of idle full-MTU buffers per thread, and 64 KB of small ones.
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

// tcprx_bench runs its points on worker threads: each keeps its own lists. Keeping the
// classes apart stops ACK writers from taking full-MTU buffers and leaving them short,
// which would make the next data frame in each zero-fill its way back to full size.
thread_local FreeList small_buffers;
thread_local FreeList full_buffers;

}  // namespace

std::vector<uint8_t> TakeFrameBuffer(size_t size) {
  const bool small = size <= kSmallFrameBufferCapacity;
  FreeList& list = small ? small_buffers : full_buffers;
  std::vector<uint8_t> buffer;
  ++thread_harness_counters.frame_buffers_taken;
  if (!list.buffers.empty()) {
    buffer = std::move(list.buffers.back());
    list.buffers.pop_back();
    UnpoisonRecycled(buffer.data(), buffer.capacity());
  } else {
    ++thread_harness_counters.frame_buffers_made;
    buffer.reserve(small ? kSmallFrameBufferCapacity : std::max(size, kFrameBufferCapacity));
  }
  // Shrinking writes nothing; growing value-initializes the new tail only.
  buffer.resize(size);
  return buffer;
}

void RecycleFrameBuffer(std::vector<uint8_t> buffer) {
  if (buffer.capacity() < kSmallFrameBufferCapacity) {
    return;
  }
  FreeList& list = buffer.capacity() < kFrameBufferCapacity ? small_buffers : full_buffers;
  if (list.buffers.size() == kMaxCachedBuffers) {
    return;
  }
  PoisonRecycled(buffer.data(), buffer.capacity());
  list.buffers.push_back(std::move(buffer));
}

std::vector<uint8_t> CopyFrame(std::span<const uint8_t> frame) {
  std::vector<uint8_t> copy = TakeFrameBuffer(frame.size());
  std::copy(frame.begin(), frame.end(), copy.begin());
  return copy;
}

}  // namespace tcprx
