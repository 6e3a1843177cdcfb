// Tests for the capture/profiling observability layer: pcap file format round-trip
// and the per-routine flat profile.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/sim/pcap.h"
#include "src/sim/testbed.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

uint32_t ReadLe32(const std::vector<uint8_t>& buf, size_t at) {
  return static_cast<uint32_t>(buf[at]) | (static_cast<uint32_t>(buf[at + 1]) << 8) |
         (static_cast<uint32_t>(buf[at + 2]) << 16) |
         (static_cast<uint32_t>(buf[at + 3]) << 24);
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

TEST(Pcap, WritesValidGlobalHeaderAndRecords) {
  const std::string path = ::testing::TempDir() + "/tcprx_pcap_test.pcap";
  const auto frame_a = MakeFrame(FrameOptions{}, 100);
  auto options_b = FrameOptions{};
  options_b.seq = 777;
  const auto frame_b = MakeFrame(options_b, 200);
  {
    PcapWriter pcap(path);
    ASSERT_TRUE(pcap.ok());
    pcap.Record(SimTime::FromMicros(1'500'000), frame_a);  // t = 1.5 s
    pcap.Record(SimTime::FromMicros(1'500'012), frame_b);
    EXPECT_EQ(pcap.frames_written(), 2u);
  }

  const auto buf = ReadAll(path);
  ASSERT_GE(buf.size(), 24u);
  EXPECT_EQ(ReadLe32(buf, 0), 0xa1b2c3d4u);  // magic (host order = LE here)
  EXPECT_EQ(buf[4], 2u);                     // version major
  EXPECT_EQ(ReadLe32(buf, 20), 1u);          // linktype Ethernet

  // First record header.
  size_t at = 24;
  EXPECT_EQ(ReadLe32(buf, at), 1u);       // ts_sec
  EXPECT_EQ(ReadLe32(buf, at + 4), 500000u);  // ts_usec
  const uint32_t incl = ReadLe32(buf, at + 8);
  EXPECT_EQ(incl, frame_a.size());
  EXPECT_EQ(ReadLe32(buf, at + 12), frame_a.size());
  // Frame bytes are verbatim.
  EXPECT_TRUE(std::equal(frame_a.begin(), frame_a.end(), buf.begin() + static_cast<long>(at + 16)));

  // Second record follows immediately.
  at += 16 + incl;
  EXPECT_EQ(ReadLe32(buf, at + 8), frame_b.size());
  const size_t end = at + 16 + frame_b.size();
  EXPECT_EQ(buf.size(), end);
  std::remove(path.c_str());
}

TEST(Pcap, TestbedCaptureContainsHandshake) {
  const std::string path = ::testing::TempDir() + "/tcprx_testbed.pcap";
  {
    TestbedConfig config;
    config.stack.fill_tcp_checksums = false;
    config.num_nics = 1;
    Testbed bed(config);
    PcapWriter pcap(path);
    ASSERT_TRUE(pcap.ok());
    bed.AttachPcap(pcap);
    bed.stack().Listen(5001, [](TcpConnection&) {});
    TcpConnection* client =
        bed.remote(0).CreateConnection(bed.ClientConnectionConfig(0, 10000, 5001));
    client->Connect();
    bed.loop().RunUntil(SimTime::FromMillis(5));
    EXPECT_GE(pcap.frames_written(), 3u);  // SYN, SYN-ACK, ACK
  }
  const auto buf = ReadAll(path);
  EXPECT_GT(buf.size(), 24u + 3 * (16 + 54));
  std::remove(path.c_str());
}

TEST(Pcap, UnwritablePathReportsNotOk) {
  PcapWriter pcap("/nonexistent-dir/x.pcap");
  EXPECT_FALSE(pcap.ok());
  pcap.Record(SimTime::FromNanos(1), std::vector<uint8_t>(10, 0));  // must not crash
  EXPECT_EQ(pcap.frames_written(), 0u);
}

TEST(FlatProfile, RoutinesAttributeCycles) {
  CycleAccount account;
  account.Charge(Routine::kTcpV4Rcv, 100);
  account.Charge(Routine::kTcpV4Rcv, 50);
  account.Charge(Routine::kE1000CleanRxIrq, 10);
  account.Charge(Routine::kSpinLock, 5);
  const RoutineCycles& routines = account.routine_cycles();
  EXPECT_EQ(routines[static_cast<size_t>(Routine::kTcpV4Rcv)], 150u);
  EXPECT_EQ(routines[static_cast<size_t>(Routine::kE1000CleanRxIrq)], 10u);
  EXPECT_EQ(routines[static_cast<size_t>(Routine::kSpinLock)], 5u);
  EXPECT_EQ(account.Get(CostCategory::kRx), 155u);  // the lock sites bill rx
  EXPECT_EQ(account.Total(), 165u);
}

uint64_t CyclesOf(const StreamResult& r, Routine routine) {
  return r.routine_cycles[static_cast<size_t>(routine)];
}

// The windowed, all-core flat profile and the category breakdown are one snapshot:
// every category's cycles/packet times the window's data packets is exactly the sum of
// the routines that bill that category.
void ExpectProfileFoldsIntoBreakdown(const StreamResult& r) {
  ASSERT_GT(r.data_packets, 0u);
  const CategoryCycles categories = FoldCategories(r.routine_cycles);
  uint64_t routine_total = 0;
  for (const uint64_t cycles : r.routine_cycles) {
    routine_total += cycles;
  }
  uint64_t category_total = 0;
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    const auto from_breakdown = static_cast<uint64_t>(
        std::llround(r.cycles_per_packet[c] * static_cast<double>(r.data_packets)));
    EXPECT_EQ(from_breakdown, categories[c]) << CostCategoryName(static_cast<CostCategory>(c));
    category_total += from_breakdown;
  }
  EXPECT_EQ(routine_total, category_total);
  EXPECT_GT(CyclesOf(r, Routine::kAggrEarlyDemux), 0u);
  EXPECT_GT(CyclesOf(r, Routine::kCopyToUser), 0u);
  EXPECT_GT(CyclesOf(r, Routine::kDriverExpandTemplateAck), 0u);
}

TEST(FlatProfile, WindowedAllCoreProfileFoldsIntoBreakdown) {
  Testbed::StreamOptions options;
  options.warmup = SimDuration::FromMillis(50);
  options.measure = SimDuration::FromMillis(50);
  {
    TestbedConfig config;
    config.stack = StackConfig::Optimized(SystemType::kNativeUp);
    config.num_nics = 1;
    Testbed bed(config);
    ExpectProfileFoldsIntoBreakdown(bed.RunStream(options));
  }
  {
    TestbedConfig config;
    config.stack = StackConfig::Optimized(SystemType::kNativeSmp);
    config.num_nics = 2;
    config.smp.num_cores = 4;
    options.connections_per_nic = 4;
    Testbed bed(config);
    const StreamResult r = bed.RunStream(options);
    ExpectProfileFoldsIntoBreakdown(r);
    // The shards contend for shared lines; the fold above ties the profile to the
    // breakdown, which sums every core.
    EXPECT_GT(CyclesOf(r, Routine::kPoolCounters) + CyclesOf(r, Routine::kFibTable), 0u);
  }
}

}  // namespace
}  // namespace tcprx
