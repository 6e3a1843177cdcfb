// Tests for the CPU substrate: cache/prefetch model, cycle accounting, lock model,
// and the CPU clock. Includes the parameterized prefetch-mode sweeps that encode the
// paper's architectural argument as invariants.

#include <gtest/gtest.h>

#include "src/cpu/cache_model.h"
#include "src/cpu/cost_params.h"
#include "src/cpu/cpu_clock.h"
#include "src/cpu/cycle_account.h"

namespace tcprx {
namespace {

// ---------------------------------------------------------------------------
// CacheModel
// ---------------------------------------------------------------------------

class CacheModelPrefetchTest : public ::testing::TestWithParam<PrefetchMode> {};

TEST_P(CacheModelPrefetchTest, SequentialCostGrowsWithBytes) {
  const CacheModel model(GetParam());
  uint64_t prev = 0;
  for (size_t bytes : {64u, 256u, 1024u, 1448u, 4096u}) {
    const uint64_t cost = model.SequentialAccessCycles(bytes);
    EXPECT_GT(cost, prev);
    prev = cost;
  }
}

TEST_P(CacheModelPrefetchTest, CopyIsMoreThanOneStreamPass) {
  const CacheModel model(GetParam());
  EXPECT_GT(model.CopyCycles(1448), model.SequentialAccessCycles(1448));
  EXPECT_GT(model.CopyCycles(1448), model.ChecksumCycles(1448));
}

INSTANTIATE_TEST_SUITE_P(AllModes, CacheModelPrefetchTest,
                         ::testing::Values(PrefetchMode::kNone, PrefetchMode::kAdjacent,
                                           PrefetchMode::kFull),
                         [](const auto& name_info) { return PrefetchModeName(name_info.param); });

TEST(CacheModel, MoreAggressivePrefetchIsNeverSlower) {
  const CacheModel none(PrefetchMode::kNone);
  const CacheModel adjacent(PrefetchMode::kAdjacent);
  const CacheModel full(PrefetchMode::kFull);
  for (size_t bytes : {1u, 63u, 64u, 65u, 1448u, 65536u}) {
    EXPECT_GE(none.SequentialAccessCycles(bytes), adjacent.SequentialAccessCycles(bytes))
        << bytes;
    EXPECT_GE(adjacent.SequentialAccessCycles(bytes), full.SequentialAccessCycles(bytes))
        << bytes;
  }
}

TEST(CacheModel, FullPrefetchShiftsPerByteBelowPerPacket) {
  // Qualitative reproduction of Figure 1's crossover: an MTU copy dominated by memory
  // misses without prefetch becomes cheaper than a typical per-packet random-touch
  // budget with full prefetching.
  const CacheModel none(PrefetchMode::kNone);
  const CacheModel full(PrefetchMode::kFull);
  // 20 cache lines at unpredictable addresses, each a memory miss in any mode.
  const uint64_t per_packet_touches = 20 * uint64_t{kCacheParams.memory_miss_cycles};
  EXPECT_GT(none.CopyCycles(1448), per_packet_touches);
  EXPECT_LT(full.CopyCycles(1448), per_packet_touches);
}

TEST(CacheModel, ZeroBytesCostNothing) {
  const CacheModel model(PrefetchMode::kFull);
  EXPECT_EQ(model.SequentialAccessCycles(0), 0u);
  EXPECT_EQ(model.CopyCycles(0), 0u);
}

TEST(CacheModel, WarmupDominatesShortStreams) {
  // Streams shorter than the stride warmup see miss costs (paired by the adjacent
  // prefetcher) even in Full mode.
  const CacheParams& params = kCacheParams;
  const CacheModel full(PrefetchMode::kFull);
  // 1 line: one demand miss.
  EXPECT_EQ(full.SequentialAccessCycles(64), params.memory_miss_cycles);
  // 2 warmup lines: a miss plus its adjacent-prefetched buddy.
  EXPECT_EQ(full.SequentialAccessCycles(128),
            params.memory_miss_cycles + params.l1_hit_cycles);
  // 3 lines = full warmup (2 misses + 1 buddy hit with warmup=3).
  EXPECT_EQ(full.SequentialAccessCycles(192),
            2u * params.memory_miss_cycles + params.l1_hit_cycles);
  // Beyond warmup, lines cost only the prefetch-hit latency.
  EXPECT_EQ(full.SequentialAccessCycles(256),
            2u * params.memory_miss_cycles + params.l1_hit_cycles +
                params.prefetch_hit_cycles);
}

TEST(CacheModel, AdjacentHalvesMisses) {
  const CacheParams& params = kCacheParams;
  const CacheModel adjacent(PrefetchMode::kAdjacent);
  // 4 lines: 2 misses + 2 buddy hits.
  EXPECT_EQ(adjacent.SequentialAccessCycles(256),
            2u * params.memory_miss_cycles + 2u * params.l1_hit_cycles);
}

// ---------------------------------------------------------------------------
// CycleAccount
// ---------------------------------------------------------------------------

TEST(CycleAccount, ChargesAccumulatePerCategory) {
  CycleAccount account;
  account.Charge(Routine::kTcpV4Rcv, 100);
  account.Charge(Routine::kIpRcv, 50);
  account.Charge(Routine::kE1000CleanRxIrq, 10);
  EXPECT_EQ(account.Get(CostCategory::kRx), 150u);
  EXPECT_EQ(account.Get(CostCategory::kDriver), 10u);
  EXPECT_EQ(account.Get(CostCategory::kXen), 0u);
  EXPECT_EQ(account.Total(), 160u);
}

TEST(CycleAccount, CategoryNamesAreUnique) {
  for (size_t a = 0; a < kCostCategoryCount; ++a) {
    for (size_t b = a + 1; b < kCostCategoryCount; ++b) {
      EXPECT_STRNE(CostCategoryName(static_cast<CostCategory>(a)),
                   CostCategoryName(static_cast<CostCategory>(b)));
    }
  }
}

// The static_asserts in cycle_account.h already hold at compile time; this spells the
// same contract out per row so a failure names the offending routine.
TEST(CycleAccount, RoutineNamesAreUniqueAndTableFollowsEnumOrder) {
  for (size_t r = 0; r < kRoutineCount; ++r) {
    EXPECT_EQ(kRoutineTable[r].routine, static_cast<Routine>(r)) << kRoutineTable[r].name;
    EXPECT_FALSE(kRoutineTable[r].name.empty()) << "routine " << r;
    for (size_t other = r + 1; other < kRoutineCount; ++other) {
      EXPECT_NE(kRoutineTable[r].name, kRoutineTable[other].name);
    }
  }
}

// ---------------------------------------------------------------------------
// Lock model
// ---------------------------------------------------------------------------

TEST(LockModel, SmpLockSitesCostMore) {
  EXPECT_GT(LockSiteCycles(true), LockSiteCycles(false));
  // The calibrated ratio reproduces the paper's observation that lock-prefixed RMW
  // instructions dominate the SMP inflation (+62% on rx with ~7 sites).
  EXPECT_GE(LockSiteCycles(true), 10 * LockSiteCycles(false));
}

// ---------------------------------------------------------------------------
// CpuClock
// ---------------------------------------------------------------------------

TEST(CpuClock, SerializesWork) {
  CpuClock cpu(1'000'000'000);  // 1 GHz: 1 cycle = 1 ns
  const SimTime end1 = cpu.Run(SimTime::FromNanos(0), 100);
  EXPECT_EQ(end1, SimTime::FromNanos(100));
  // Work requested at t=50 queues behind the busy CPU.
  const SimTime end2 = cpu.Run(SimTime::FromNanos(50), 100);
  EXPECT_EQ(end2, SimTime::FromNanos(200));
  // Work requested after idle starts immediately.
  const SimTime end3 = cpu.Run(SimTime::FromNanos(500), 100);
  EXPECT_EQ(end3, SimTime::FromNanos(600));
}

TEST(CpuClock, TracksBusyCycles) {
  CpuClock cpu(3'000'000'000);
  cpu.Run(SimTime::FromNanos(0), 3000);
  cpu.Run(SimTime::FromNanos(0), 1500);
  EXPECT_EQ(cpu.busy_cycles(), 4500u);
  cpu.ResetStats();
  EXPECT_EQ(cpu.busy_cycles(), 0u);
}

TEST(CpuClock, UtilizationFractionOfWindow) {
  CpuClock cpu(1'000'000'000);
  cpu.Run(SimTime::FromNanos(0), 500);
  const double util = cpu.Utilization(SimTime::FromNanos(0), SimTime::FromNanos(1000));
  EXPECT_NEAR(util, 0.5, 1e-9);
}

TEST(CpuClock, UtilizationCountsOnlyWorkInsideTheWindow) {
  // Regression: the old implementation divided lifetime busy cycles by the window
  // length and silently clamped to 1.0, so work executed before the window start
  // inflated the reported utilization.
  CpuClock cpu(1'000'000'000);
  cpu.Run(SimTime::FromNanos(0), 1000);  // busy [0, 1000) — entirely before the window
  cpu.Run(SimTime::FromNanos(2000), 300);  // busy [2000, 2300) — inside the window
  const double util =
      cpu.Utilization(SimTime::FromNanos(1000), SimTime::FromNanos(3000));
  EXPECT_NEAR(util, 0.15, 1e-9);
}

TEST(CpuClock, UtilizationClipsWorkSpanningTheWindowEdge) {
  CpuClock cpu(1'000'000'000);
  // Busy [500, 1500): half before the window start, half inside.
  cpu.Run(SimTime::FromNanos(500), 1000);
  EXPECT_NEAR(cpu.Utilization(SimTime::FromNanos(1000), SimTime::FromNanos(2000)), 0.5,
              1e-9);
  // A window that ends mid-region clips at the end too.
  EXPECT_NEAR(cpu.Utilization(SimTime::FromNanos(0), SimTime::FromNanos(1000)), 0.5,
              1e-9);
  // A window fully inside the busy region is 100% — and never above it.
  EXPECT_NEAR(cpu.Utilization(SimTime::FromNanos(600), SimTime::FromNanos(1400)), 1.0,
              1e-9);
}

TEST(CpuClock, UtilizationMergesQueuedWork) {
  CpuClock cpu(1'000'000'000);
  // Second Run queues behind the first: one contiguous busy region [0, 200).
  cpu.Run(SimTime::FromNanos(0), 100);
  cpu.Run(SimTime::FromNanos(50), 100);
  EXPECT_EQ(cpu.BusyNanosIn(SimTime::FromNanos(0), SimTime::FromNanos(300)), 200u);
  EXPECT_NEAR(cpu.Utilization(SimTime::FromNanos(0), SimTime::FromNanos(400)), 0.5,
              1e-9);
}

TEST(CpuClock, UtilizationEmptyOrInvertedWindowIsZero) {
  CpuClock cpu(1'000'000'000);
  cpu.Run(SimTime::FromNanos(0), 100);
  EXPECT_EQ(cpu.Utilization(SimTime::FromNanos(50), SimTime::FromNanos(50)), 0.0);
  EXPECT_EQ(cpu.Utilization(SimTime::FromNanos(90), SimTime::FromNanos(10)), 0.0);
}

TEST(CpuClock, WorkAlwaysTakesNonzeroTime) {
  CpuClock cpu(3'000'000'000);
  const SimTime end = cpu.Run(SimTime::FromNanos(0), 1);
  EXPECT_GT(end, SimTime::FromNanos(0));
}

TEST(CpuClock, IdleAtReflectsBusyUntil) {
  CpuClock cpu(1'000'000'000);
  cpu.Run(SimTime::FromNanos(0), 100);
  EXPECT_FALSE(cpu.IdleAt(SimTime::FromNanos(50)));
  EXPECT_TRUE(cpu.IdleAt(SimTime::FromNanos(100)));
}

}  // namespace
}  // namespace tcprx
