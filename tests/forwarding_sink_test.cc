// A sink between the poll driver and the stack that forwards only the RxSink members it
// knows, as perfbench's traced bed does, leaves HoldDriverBatch at its default: each
// transmit batch is queued as an event of its own instead of being sent in place by the
// driver. The simulated results must not tell the two apart.

#include <gtest/gtest.h>

#include <cstdint>

#include "perfbench/span_tracer.h"
#include "perfbench/traced_bed.h"
#include "src/sim/testbed.h"
#include "src/stack/stack_config.h"

namespace tcprx {
namespace {

TEST(ForwardingSink, GetsTheSameStreamResultAsTheStack) {
  for (const bool optimized : {false, true}) {
    SCOPED_TRACE(optimized ? "optimized" : "baseline");
    TestbedConfig config;
    config.stack = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                             : StackConfig::Baseline(SystemType::kNativeUp);
    Testbed::StreamOptions options;
    options.warmup = SimDuration::FromMillis(20);
    options.measure = SimDuration::FromMillis(30);

    Testbed bed(config);
    StreamResult direct = bed.RunStream(options);
    perfbench::SpanTracer tracer([]() -> int64_t { return 0; });  // spans time nothing
    perfbench::TracedBed traced_bed(config, tracer);
    StreamResult forwarded = traced_bed.RunStream(options);

    EXPECT_GT(direct.data_packets, 1000u);
    // The traced bed reports no per-routine profile.
    forwarded.routine_cycles = direct.routine_cycles;
    EXPECT_EQ(forwarded, direct);
  }
}

}  // namespace
}  // namespace tcprx
