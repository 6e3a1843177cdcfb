// Deterministic counts of the harness's own work: what the simulator does to produce
// its numbers, as opposed to the cycles it charges the modelled host.
//
// Each Testbed runs on one thread, so the counters are per thread and plain integers.
// A window's count is the difference of two reads on the bed's thread.

#ifndef SRC_UTIL_HARNESS_COUNTERS_H_
#define SRC_UTIL_HARNESS_COUNTERS_H_

#include <cstdint>

namespace tcprx {

struct HarnessCounters {
  // TCP payload bytes the frame writer wrote into frames (src/wire/frame.h).
  uint64_t payload_bytes_written = 0;
};

// This thread's counters.
inline thread_local HarnessCounters thread_harness_counters;

}  // namespace tcprx

#endif  // SRC_UTIL_HARNESS_COUNTERS_H_
