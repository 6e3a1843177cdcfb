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
  // Frames handed to ParseTcpFrame (src/wire/frame.h): the packet pool parses each
  // received frame once.
  uint64_t frames_parsed = 0;
  // IPv4 header checksum checks (VerifyIpv4Checksum, src/wire/ipv4.h): one per parse.
  uint64_t ipv4_header_checks = 0;
  // TakeFrameBuffer calls (src/wire/frame_buffer.h), and those that made a new buffer.
  uint64_t frame_buffers_taken = 0;
  uint64_t frame_buffers_made = 0;
  uint64_t events_run = 0;  // events EventLoop::RunNext (src/util/event_loop.h) ran
};

// This thread's counters.
inline thread_local constinit HarnessCounters thread_harness_counters;

}  // namespace tcprx

#endif  // SRC_UTIL_HARNESS_COUNTERS_H_
