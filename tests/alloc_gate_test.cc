// Heap allocations per link frame on the harness hot path.
//
// The binary links perfbench's replacement operator new, which counts every
// allocation while counting is on. Each test runs a workload to steady state, then a
// window of it with counting on. The count is deterministic, so it gates the per-frame
// harness work the model never charges: frame buffers, SkBuffs, aggregate metadata,
// ACK batches, link hops, transmit batches, out-of-order segments. Once warm, none of
// them allocates.

#include <gtest/gtest.h>

#include "perfbench/alloc_counter.h"
#include "src/sim/testbed.h"
#include "src/tcp/reassembly.h"

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

// Runs the next `window` of simulated time with allocation counting on and expects no
// allocation in it.
void ExpectNoAllocationOver(Testbed& bed, SimDuration window, uint64_t min_frames) {
  const uint64_t frames_before = LinkFrames(bed);
  const perfbench::AllocCounts before = perfbench::AllocCountsNow();
  perfbench::SetAllocCounting(true);
  bed.loop().RunUntil(bed.loop().Now() + window);
  perfbench::SetAllocCounting(false);
  const uint64_t allocs = perfbench::AllocCountsNow().calls - before.calls;
  const uint64_t frames = LinkFrames(bed) - frames_before;

  ASSERT_GT(frames, min_frames);
  ::testing::Test::RecordProperty("link_frames", std::to_string(frames));
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << frames << " link frames";
}

TEST(AllocGate, OptimizedStreamMakesNoAllocation) {
  TestbedConfig config;  // as `tcprx_sim stream --optimized`
  config.stack = StackConfig::Optimized(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = false;
  Testbed bed(config);
  Testbed::StreamOptions options;
  options.warmup = SimDuration::FromMillis(50);
  options.measure = SimDuration::FromMillis(20);
  ASSERT_GT(bed.RunStream(options).throughput_mbps, 0);
  ExpectNoAllocationOver(bed, SimDuration::FromMillis(20), 1000);
}

TEST(AllocGate, RssBaselineStreamMakesNoAllocation) {
  // The multi-core host: 4 cores with RSS, 5 x 10 GbE, 4 flows per NIC, no loss.
  TestbedConfig config;
  config.stack = StackConfig::Baseline(SystemType::kNativeSmp);
  config.stack.fill_tcp_checksums = false;
  config.smp.num_cores = 4;
  config.smp.rss.enabled = true;
  config.link.bits_per_second = 10'000'000'000;
  Testbed bed(config);
  Testbed::StreamOptions options;
  options.connections_per_nic = 4;
  options.warmup = SimDuration::FromMillis(20);
  options.measure = SimDuration::FromMillis(10);
  ASSERT_GT(bed.RunStream(options).throughput_mbps, 0);
  ExpectNoAllocationOver(bed, SimDuration::FromMillis(10), 1000);
}

TEST(AllocGate, XenLatencyMakesNoAllocation) {
  // The request/response workload: echo transmit beside receive, lone packets.
  TestbedConfig config;  // as `tcprx_sim latency --system=xen --optimized`
  config.stack = StackConfig::Optimized(SystemType::kXenGuest);
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 1;
  Testbed bed(config);
  Testbed::LatencyOptions options;
  options.warmup = SimDuration::FromMillis(20);
  options.measure = SimDuration::FromMillis(20);
  ASSERT_GT(bed.RunLatency(options).transactions, 0u);
  // The CPU clock's log of busy periods (model state, one entry per idle-to-busy
  // transition) still grows by doubling: a window that crosses a doubling counts that
  // one allocation. This one, like the others, crosses none.
  ExpectNoAllocationOver(bed, SimDuration::FromMillis(20), 300);
}

TEST(AllocGate, WarmReassemblyQueueMakesNoAllocation) {
  // One loss in a window: 40 MSS segments arrive past a one-segment hole, then the hole
  // fills and the run pops. The first cycle warms the queue; an identical second one
  // must find its segment buffers, its sorted storage and the run's buffer there.
  constexpr size_t kMss = 1448;
  constexpr size_t kSegments = 40;
  const std::vector<uint8_t> payload(kMss, 0x5a);
  ReassemblyQueue queue;
  std::vector<uint8_t> run;  // as the connection reuses its thread's run buffer
  const auto cycle = [&](uint64_t hole) {
    for (size_t i = 1; i <= kSegments; ++i) {
      queue.Insert(hole + i * kMss, payload);
    }
    run.clear();
    return queue.PopInOrder(hole + kMss, run);
  };
  ASSERT_EQ(cycle(1000), kSegments * kMss);

  const perfbench::AllocCounts before = perfbench::AllocCountsNow();
  perfbench::SetAllocCounting(true);
  const size_t popped = cycle(1000 + (kSegments + 1) * kMss);
  perfbench::SetAllocCounting(false);
  EXPECT_EQ(popped, kSegments * kMss);
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(perfbench::AllocCountsNow().calls, before.calls);
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
