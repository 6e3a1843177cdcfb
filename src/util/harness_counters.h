// Deterministic counts of the harness's own work: what the simulator does to produce
// its numbers, as opposed to the cycles it charges the modelled host.
//
// Each Testbed runs on one thread, so the counters are per thread and plain integers.
// A window's count is the difference of two reads on the bed's thread.

#ifndef SRC_UTIL_HARNESS_COUNTERS_H_
#define SRC_UTIL_HARNESS_COUNTERS_H_

#include <cstdint>
#include <iterator>

namespace tcprx {

struct HarnessCounters {
  // TCP payload bytes the frame writer wrote into frames (src/wire/frame.h).
  uint64_t payload_bytes_written = 0;
  // Frames handed to ParseTcpFrame (src/wire/frame.h): the packet pool parses each
  // received frame once.
  uint64_t frames_parsed = 0;
  // IPv4 header checksum checks (src/wire/ipv4.h): one per frame ParseTcpFrame parses
  // as TCP, plus each VerifyIpv4Checksum call.
  uint64_t ipv4_header_checks = 0;
  // Passes of the TCP checksum over a segment (TcpChecksum and VerifyTcpChecksum,
  // src/wire/tcp.h): 0 on a length-only run, whose segments carry no checksum.
  uint64_t tcp_checksum_passes = 0;
  // TakeFrameBuffer calls (src/wire/frame_buffer.h), and those that made a new buffer.
  uint64_t frame_buffers_taken = 0;
  uint64_t frame_buffers_made = 0;
  uint64_t events_run = 0;  // events EventLoop::RunNext (src/util/event_loop.h) ran
  // Event keys the EventLoop's heap compared while sifting, or while looking for an
  // earlier pending event before running one in place (src/util/event_loop.h).
  uint64_t event_key_compares = 0;
  // Events that ran in place, without a heap event of their own (EventLoop::RunInPlace):
  // poll steps and the transmit batches a driver sends in place.
  uint64_t steps_in_place = 0;
  // Frames a NIC took off its link without a wakeup per frame (SimplexLink::PullBefore,
  // src/nic/link.h).
  uint64_t frames_pulled = 0;
  // Segments TcpConnection::BuildSegment (src/tcp/tcp_connection.h) wrote from option
  // bytes it put together: SYNs, ACKs carrying SACK blocks and segments to peers
  // without timestamps. An established segment is written from the header image.
  uint64_t tcp_option_blocks_built = 0;
};

// Every counter with its name, in declaration order, for windows and reports.
struct HarnessCounterField {
  const char* name;
  uint64_t HarnessCounters::*value;
};
inline constexpr HarnessCounterField kHarnessCounterFields[] = {
    {"payload_bytes_written", &HarnessCounters::payload_bytes_written},
    {"frames_parsed", &HarnessCounters::frames_parsed},
    {"ipv4_header_checks", &HarnessCounters::ipv4_header_checks},
    {"tcp_checksum_passes", &HarnessCounters::tcp_checksum_passes},
    {"frame_buffers_taken", &HarnessCounters::frame_buffers_taken},
    {"frame_buffers_made", &HarnessCounters::frame_buffers_made},
    {"events_run", &HarnessCounters::events_run},
    {"event_key_compares", &HarnessCounters::event_key_compares},
    {"steps_in_place", &HarnessCounters::steps_in_place},
    {"frames_pulled", &HarnessCounters::frames_pulled},
    {"tcp_option_blocks_built", &HarnessCounters::tcp_option_blocks_built},
};
static_assert(sizeof(HarnessCounters) == std::size(kHarnessCounterFields) * sizeof(uint64_t),
              "a new counter needs its row in kHarnessCounterFields");

// The counts from `before` to `after`: one window's work.
inline HarnessCounters operator-(const HarnessCounters& after, const HarnessCounters& before) {
  HarnessCounters window;
  for (const HarnessCounterField& field : kHarnessCounterFields) {
    window.*field.value = after.*field.value - before.*field.value;
  }
  return window;
}

// This thread's counters.
inline thread_local constinit HarnessCounters thread_harness_counters;

}  // namespace tcprx

#endif  // SRC_UTIL_HARNESS_COUNTERS_H_
