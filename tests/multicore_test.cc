// Tests for the multi-core receive subsystem (src/smp/): the inter-core cost model,
// the software flow director, topology/imbalance arithmetic, and how the host scales
// with cores. host_matrix_test pins the exact results of one- and four-core hosts.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/testbed.h"
#include "src/smp/cpu_topology.h"
#include "src/smp/intercore.h"

namespace tcprx {
namespace {

// ---------------------------------------------------------------------------
// InterCoreModel
// ---------------------------------------------------------------------------

TEST(InterCoreModel, FirstTouchIsFree) {
  InterCoreModel model;
  EXPECT_EQ(model.TouchCycles(0, InterCoreModel::SharedLine::kRoutingTable), 0u);
  EXPECT_EQ(model.transfers(), 0u);
}

TEST(InterCoreModel, SameOwnerTouchesAreFree) {
  InterCoreModel model;
  model.TouchCycles(2, InterCoreModel::SharedLine::kPoolCounters);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(model.TouchCycles(2, InterCoreModel::SharedLine::kPoolCounters), 0u);
  }
  EXPECT_EQ(model.transfers(), 0u);
}

TEST(InterCoreModel, CrossCoreTouchChargesTransferAndMovesOwnership) {
  InterCoreModel model;
  model.TouchCycles(0, InterCoreModel::SharedLine::kFlowDirector);
  EXPECT_EQ(model.TouchCycles(1, InterCoreModel::SharedLine::kFlowDirector),
            InterCoreModel::kCacheLineTransferCycles);
  EXPECT_EQ(model.transfers(), 1u);
  // Ownership moved: core 1 is now free, core 0 pays.
  EXPECT_EQ(model.TouchCycles(1, InterCoreModel::SharedLine::kFlowDirector), 0u);
  EXPECT_EQ(model.TouchCycles(0, InterCoreModel::SharedLine::kFlowDirector),
            InterCoreModel::kCacheLineTransferCycles);
  EXPECT_EQ(model.transfers(), 2u);
}

TEST(InterCoreModel, LinesAreIndependent) {
  InterCoreModel model;
  model.TouchCycles(0, InterCoreModel::SharedLine::kRoutingTable);
  // A different line still belongs to nobody.
  EXPECT_EQ(model.TouchCycles(1, InterCoreModel::SharedLine::kPoolCounters), 0u);
}

// ---------------------------------------------------------------------------
// FlowDirector
// ---------------------------------------------------------------------------

TEST(FlowDirector, FirstSeenCoreBecomesOwner) {
  FlowDirector director;
  FlowKey key;
  key.src_ip = Ipv4Address::FromOctets(10, 0, 0, 2);
  key.dst_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  key.src_port = 1234;
  key.dst_port = 5001;
  EXPECT_EQ(director.OwnerFor(key, 3), 3u);
  // Later lookups with a different fallback keep the original owner.
  EXPECT_EQ(director.OwnerFor(key, 0), 3u);
  EXPECT_EQ(director.flows(), 1u);
}

// ---------------------------------------------------------------------------
// CpuTopology / LoadImbalance
// ---------------------------------------------------------------------------

TEST(CpuTopology, CoresHaveIndependentTimelines) {
  CpuTopology topo(2, 1'000'000'000);
  topo.core(0).Run(SimTime::FromNanos(0), 1000);
  topo.core(1).Run(SimTime::FromNanos(0), 250);
  EXPECT_EQ(topo.TotalBusyCycles(), 1250u);
  const std::vector<double> utils =
      topo.Utilizations(SimTime::FromNanos(0), SimTime::FromNanos(1000));
  ASSERT_EQ(utils.size(), 2u);
  EXPECT_NEAR(utils[0], 1.0, 1e-9);
  EXPECT_NEAR(utils[1], 0.25, 1e-9);
}

TEST(LoadImbalance, ZeroWhenBalancedOrEmpty) {
  EXPECT_EQ(LoadImbalance(std::span<const double>{}), 0.0);
  const std::vector<double> balanced = {0.5, 0.5, 0.5, 0.5};
  EXPECT_NEAR(LoadImbalance(balanced), 0.0, 1e-9);
  const std::vector<double> idle = {0.0, 0.0};
  EXPECT_EQ(LoadImbalance(idle), 0.0);
}

TEST(LoadImbalance, MaxOverMeanMinusOne) {
  const std::vector<double> skewed = {1.0, 0.5, 0.5, 0.0};  // mean 0.5, max 1.0
  EXPECT_NEAR(LoadImbalance(skewed), 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Multi-core behaviour
// ---------------------------------------------------------------------------

StreamResult RunCores(size_t cores, bool rss, bool optimized = false) {
  TestbedConfig config;
  config.stack = optimized ? StackConfig::Optimized(SystemType::kNativeSmp)
                           : StackConfig::Baseline(SystemType::kNativeSmp);
  config.stack.fill_tcp_checksums = false;
  config.link.bits_per_second = 10'000'000'000;  // keep the host CPU-bound
  config.smp.num_cores = cores;
  config.smp.rss.enabled = rss;
  Testbed bed(config);
  Testbed::StreamOptions options;
  options.connections_per_nic = 16;
  options.warmup = SimDuration::FromMillis(100);
  options.measure = SimDuration::FromMillis(200);
  return bed.RunStream(options);
}

TEST(Multicore, MoreCoresMoreThroughput) {
  const StreamResult one = RunCores(1, true);
  const StreamResult two = RunCores(2, true);
  const StreamResult four = RunCores(4, true);
  // Each doubling must help substantially (the CPU is the bottleneck at 10 Gb/s).
  EXPECT_GT(two.throughput_mbps, one.throughput_mbps * 1.5);
  EXPECT_GT(four.throughput_mbps, two.throughput_mbps * 1.5);
  // And the per-core vector matches the core count.
  EXPECT_EQ(four.per_core_utilization.size(), 4u);
}

TEST(Multicore, RssBeatsSoftwareSteering) {
  const StreamResult rss = RunCores(4, true);
  const StreamResult rps = RunCores(4, false);
  EXPECT_GT(rss.throughput_mbps, rps.throughput_mbps);
  EXPECT_EQ(rss.misdirected_packets, 0u);
  EXPECT_GT(rps.misdirected_packets, 0u);
}

TEST(Multicore, IntercoreTransfersAreCharged) {
  const StreamResult four = RunCores(4, true);
  // Shared pool/FIB lines bounce between cores even with perfect flow affinity.
  EXPECT_GT(four.intercore_transfers, 0u);
}

TEST(Multicore, DeliveryStaysLossless) {
  // Flow-affine steering preserves per-flow ordering end to end: no spurious
  // retransmits, no backlog overflow.
  const StreamResult affine = RunCores(4, true);
  EXPECT_EQ(affine.retransmits, 0u);
  EXPECT_EQ(affine.backlog_drops, 0u);

  // Per-packet spraying (RSS off) reorders flows across cores — the handoff delays
  // differ per frame — so the senders see dup-ACKs and fast-retransmit. TCP still
  // delivers (throughput stays positive), but this is exactly the penalty flow
  // affinity exists to avoid.
  const StreamResult sprayed = RunCores(4, false);
  EXPECT_GT(sprayed.throughput_mbps, 0);
  EXPECT_GT(sprayed.retransmits, 0u);
  EXPECT_LT(sprayed.throughput_mbps, affine.throughput_mbps);
}

TEST(Multicore, OptimizationsStillComposeAcrossCores) {
  const StreamResult baseline = RunCores(4, true, false);
  const StreamResult optimized = RunCores(4, true, true);
  EXPECT_GT(optimized.throughput_mbps, baseline.throughput_mbps * 1.2);
  EXPECT_GT(optimized.avg_aggregation, 1.5);
}

}  // namespace
}  // namespace tcprx
