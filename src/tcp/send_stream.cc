#include "src/tcp/send_stream.h"

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"

namespace tcprx {
namespace {

// Entry i is a hash of i for i < kPatternPeriod; the tail repeats the start. The
// loops use built-in subscripts and stay below 2^18 iterations each, because
// compilers bound the loop iterations and steps of one constant evaluation.
constexpr PatternTable MakePatternTable() {
  PatternTable t{};
  constexpr uint64_t kChunk = 4096;
  for (uint64_t base = 0; base < kPatternPeriod; base += kChunk) {
    for (uint64_t i = base; i < base + kChunk && i < kPatternPeriod; ++i) {
      t.bytes[i] = static_cast<uint8_t>((i * 0x9e3779b97f4a7c15ull) ^
                                        ((i * 0x9e3779b97f4a7c15ull) >> 32));
    }
  }
  for (uint64_t i = 0; i < kMaxPatternView; ++i) {
    t.bytes[kPatternPeriod + i] = t.bytes[i];
  }
  return t;
}

}  // namespace

constexpr PatternTable kPatternTable = MakePatternTable();

void SendStream::Append(std::span<const uint8_t> data) {
  TCPRX_CHECK_MSG(!synthetic_, "cannot mix explicit writes with a synthetic source");
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  end_offset_ += data.size();
}

void SendStream::SetSynthetic(uint64_t total_bytes) {
  TCPRX_CHECK_MSG(end_offset_ == 0, "SetSynthetic must precede any Append");
  synthetic_ = true;
  end_offset_ = total_bytes;
}

std::span<const uint8_t> SendStream::View(uint64_t offset, size_t len) const {
  TCPRX_CHECK_MSG(offset + len <= end_offset_, "read past end of stream");
  TCPRX_CHECK_MSG(offset >= released_offset_, "read of already-released bytes");
  if (synthetic_) {
    TCPRX_CHECK_MSG(len <= kMaxPatternView, "synthetic read longer than kMaxPatternView");
    return PatternView(offset, len);
  }
  return std::span<const uint8_t>(buffer_).subspan(static_cast<size_t>(offset - buffer_base_),
                                                   len);
}

void SendStream::ReleaseThrough(uint64_t offset) {
  if (offset <= released_offset_) {
    return;
  }
  TCPRX_CHECK_MSG(offset <= end_offset_, "release past end of stream");
  released_offset_ = offset;
  if (synthetic_) {
    return;
  }
  const size_t released = static_cast<size_t>(offset - buffer_base_);
  if (released >= buffer_.size() - released) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(released));
    buffer_base_ = offset;
  }
}

void PatternCheck::Feed(std::span<const uint8_t> chunk) {
  for (size_t at = 0; at < chunk.size() && !first_mismatch;) {
    const size_t len = std::min(chunk.size() - at, kMaxPatternView);
    const std::span<const uint8_t> want = SendStream::PatternView(bytes + at, len);
    if (std::memcmp(chunk.data() + at, want.data(), len) != 0) {
      size_t i = 0;
      while (chunk[at + i] == want[i]) {
        ++i;
      }
      first_mismatch = bytes + at + i;
    }
    at += len;
  }
  bytes += chunk.size();
}

}  // namespace tcprx
