// Heap allocations per link frame on the harness hot path.
//
// The binary links perfbench's replacement operator new, which counts every
// allocation while counting is on. A short optimized stream runs to steady state, then
// a window of it runs with counting on. The count is deterministic, so it gates the
// per-frame harness work the model never charges: payload fill, option bytes, link
// hops, aggregate metadata, transmit batches.

#include <gtest/gtest.h>

#include "perfbench/alloc_counter.h"
#include "src/sim/testbed.h"

namespace tcprx {
namespace {

// Frames offered to the links: every frame reaches a NIC or leaves one.
uint64_t LinkFrames(Testbed& bed) {
  uint64_t frames = 0;
  for (size_t i = 0; i < bed.num_nics(); ++i) {
    frames += bed.nic(i).stats().rx_frames + bed.nic(i).stats().tx_frames;
  }
  return frames;
}

TEST(AllocGate, OptimizedStreamAllocatesAtMostTwicePerLinkFrame) {
  TestbedConfig config;  // as `tcprx_sim stream --optimized`
  config.stack = StackConfig::Optimized(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = false;
  Testbed bed(config);
  Testbed::StreamOptions options;
  options.warmup = SimDuration::FromMillis(50);
  options.measure = SimDuration::FromMillis(20);
  ASSERT_GT(bed.RunStream(options).throughput_mbps, 0);

  const uint64_t frames_before = LinkFrames(bed);
  const perfbench::AllocCounts before = perfbench::AllocCountsNow();
  perfbench::SetAllocCounting(true);
  bed.loop().RunUntil(bed.loop().Now() + SimDuration::FromMillis(20));
  perfbench::SetAllocCounting(false);
  const uint64_t allocs = perfbench::AllocCountsNow().calls - before.calls;
  const uint64_t frames = LinkFrames(bed) - frames_before;

  ASSERT_GT(frames, 1000u);
  const double per_frame = static_cast<double>(allocs) / static_cast<double>(frames);
  RecordProperty("allocs_per_link_frame", std::to_string(per_frame));
  EXPECT_LE(per_frame, 2.0) << allocs << " allocations over " << frames << " link frames";
}

TEST(AllocGate, AValidConfigurationIsCheckedWithoutAllocating) {
  // ConfigErrors runs in every Testbed's construction, so its clean path stays free.
  TestbedConfig config;
  config.client_to_server_link = LinkConfig{};
  config.client_to_server_link->drop_probability = 0.01;
  const perfbench::AllocCounts before = perfbench::AllocCountsNow();
  perfbench::SetAllocCounting(true);
  const bool clean = ConfigErrors(config).empty() &&
                     ConfigErrors(config, Testbed::StreamOptions{}).empty() &&
                     ConfigErrors(config, Testbed::LatencyOptions{}).empty();
  perfbench::SetAllocCounting(false);
  EXPECT_TRUE(clean);
  EXPECT_EQ(perfbench::AllocCountsNow().calls, before.calls);
}

}  // namespace
}  // namespace tcprx
