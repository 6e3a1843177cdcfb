// Memory-hierarchy cost model with a selectable hardware prefetch mode.
//
// This module embodies the paper's architectural observation (section 2.1): per-byte
// operations access packet data *sequentially* and therefore get cheap as hardware
// prefetching gets more aggressive, while per-packet operations make *random*
// (pointer-chasing) accesses that prefetching cannot help. The three prefetch modes
// mirror the paper's CPU configurations: None, Partial (adjacent cache-line prefetch)
// and Full (adjacent + stride-based prefetch).

#ifndef SRC_CPU_CACHE_MODEL_H_
#define SRC_CPU_CACHE_MODEL_H_

#include <cstddef>
#include <cstdint>

namespace tcprx {

enum class PrefetchMode {
  kNone,      // every cache line of a cold stream misses to memory
  kAdjacent,  // adjacent-line prefetch: pair buddy lines come in with each miss
  kFull,      // adjacent + stride prefetcher: steady-state lines arrive ahead of use
};

const char* PrefetchModeName(PrefetchMode mode);

struct CacheParams {
  uint32_t line_size = 64;         // bytes per cache line
  uint32_t memory_miss_cycles = 200;  // cold miss serviced from DRAM
  uint32_t l1_hit_cycles = 4;         // line already resident
  uint32_t prefetch_hit_cycles = 16;  // line arriving via the stride prefetcher
  uint32_t stride_warmup_lines = 3;   // lines before the stride prefetcher locks on
  // Fixed-point ALU cost of moving/checksumming one byte, in 1/100 cycle units
  // (e.g. 20 = 0.20 cycles/byte, roughly rep-movs throughput).
  uint32_t alu_centicycles_per_byte = 20;
};

// The one memory hierarchy, fixed at compile time; only the prefetch mode varies.
inline constexpr CacheParams kCacheParams{};

// Pure cost calculator: given an access pattern, how many cycles does it take.
class CacheModel {
 public:
  explicit CacheModel(PrefetchMode mode) : mode_(mode) {}

  // Cycles to stream-read `bytes` of cold (just-DMA'd) data. Benefits from prefetch.
  uint64_t SequentialAccessCycles(size_t bytes) const;

  // Cycles to touch `lines` cache lines at unpredictable addresses (buffer metadata,
  // hash buckets, list nodes). Never benefits from prefetch: this is what keeps
  // per-packet operations expensive on modern CPUs.
  uint64_t RandomTouchCycles(size_t lines) const;

  // Cycles to copy `bytes` from one cold sequential region to another (read stream +
  // write-allocate stream + per-byte ALU work). The canonical per-byte operation.
  uint64_t CopyCycles(size_t bytes) const;

  // Cycles to checksum `bytes` of cold data in software (read stream + ALU). Used when
  // the NIC lacks rx checksum offload.
  uint64_t ChecksumCycles(size_t bytes) const;

 private:
  uint64_t ColdStreamCycles(size_t lines) const;

  PrefetchMode mode_;
};

}  // namespace tcprx

#endif  // SRC_CPU_CACHE_MODEL_H_
