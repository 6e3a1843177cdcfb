#include "src/cpu/cache_model.h"

namespace tcprx {
namespace {

// Per-byte ALU work of moving or checksumming `bytes`.
uint64_t AluCycles(size_t bytes) {
  return static_cast<uint64_t>(bytes) * kCacheParams.alu_centicycles_per_byte / 100;
}

}  // namespace

const char* PrefetchModeName(PrefetchMode mode) {
  switch (mode) {
    case PrefetchMode::kNone:
      return "None";
    case PrefetchMode::kAdjacent:
      return "Partial";
    case PrefetchMode::kFull:
      return "Full";
  }
  return "?";
}

uint64_t CacheModel::ColdStreamCycles(size_t lines) const {
  if (lines == 0) {
    return 0;
  }
  const uint64_t miss = kCacheParams.memory_miss_cycles;
  const uint64_t hit = kCacheParams.l1_hit_cycles;
  switch (mode_) {
    case PrefetchMode::kNone:
      return lines * miss;
    case PrefetchMode::kAdjacent: {
      // Each demand miss also brings in its buddy line: half the lines miss, half hit.
      const uint64_t misses = (lines + 1) / 2;
      return misses * miss + (lines - misses) * hit;
    }
    case PrefetchMode::kFull: {
      // Full = adjacent + stride (the paper's configuration): the stride prefetcher
      // needs a short warmup, during which the adjacent-line prefetcher already
      // pairs up the misses; after warmup, lines arrive early at prefetch-hit cost.
      const uint64_t warmup =
          lines < kCacheParams.stride_warmup_lines ? lines : kCacheParams.stride_warmup_lines;
      const uint64_t warmup_misses = (warmup + 1) / 2;
      return warmup_misses * miss + (warmup - warmup_misses) * hit +
             (lines - warmup) * kCacheParams.prefetch_hit_cycles;
    }
  }
  return lines * miss;
}

uint64_t CacheModel::SequentialAccessCycles(size_t bytes) const {
  const size_t lines = (bytes + kCacheParams.line_size - 1) / kCacheParams.line_size;
  return ColdStreamCycles(lines);
}

uint64_t CacheModel::RandomTouchCycles(size_t lines) const {
  // Random touches never hit a prefetched line, in any mode.
  return static_cast<uint64_t>(lines) * kCacheParams.memory_miss_cycles;
}

uint64_t CacheModel::CopyCycles(size_t bytes) const {
  // Read stream of the source plus write-allocate stream of the destination.
  return 2 * SequentialAccessCycles(bytes) + AluCycles(bytes);
}

uint64_t CacheModel::ChecksumCycles(size_t bytes) const {
  return SequentialAccessCycles(bytes) + AluCycles(bytes);
}

}  // namespace tcprx
