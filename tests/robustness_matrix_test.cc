// Parameterized robustness matrix: every fault type the link can inject, crossed
// with baseline and optimized stacks. The invariant in every cell is the same:
// the delivered byte stream is exact and complete. This is the paper's section 3.6
// claim ("the overall performance will never get worse... all the error-handling and
// special case handling works correctly") exercised as a grid.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>

#include "src/sim/testbed.h"
#include "src/tcp/send_stream.h"

namespace tcprx {
namespace {

struct FaultCase {
  const char* name;
  double drop = 0;
  double reorder = 0;
  double duplicate = 0;
  double corrupt = 0;
  uint64_t burst_period = 0;
  uint64_t burst_length = 0;
};

// gtest prints a FaultCase as its raw bytes, the first of which is the low byte of
// the name pointer, and gtest_discover_tests puts that print into each ctest name. The
// names therefore sit in 16-byte slots of one 256-byte-aligned block, so that low byte
// is the same in every build rather than wherever the linker puts a string literal.
// Slot 0 stays empty: "clean", at low byte 0x10, keeps the leading hex digit 1 its
// names were registered with.
alignas(256) constexpr char kFaultNames[][16] = {
    "", "clean", "drop2pct", "reorder3pct", "duplicate2pct", "corrupt1pct", "burst4per500",
    "everything"};

constexpr FaultCase kFaults[] = {
    {kFaultNames[1]},
    {kFaultNames[2], 0.02},
    {kFaultNames[3], 0, 0.03},
    {kFaultNames[4], 0, 0, 0.02},
    {kFaultNames[5], 0, 0, 0, 0.01},
    {kFaultNames[6], 0, 0, 0, 0, 500, 4},
    {kFaultNames[7], 0.01, 0.01, 0.01, 0.005, 800, 3},
};

class RobustnessMatrixTest
    : public ::testing::TestWithParam<std::tuple<FaultCase, bool>> {};

TEST_P(RobustnessMatrixTest, StreamStaysByteExact) {
  const auto& [fault, optimized] = GetParam();

  TestbedConfig config;
  config.stack = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                           : StackConfig::Baseline(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = true;  // make corruption detectable end to end
  config.num_nics = 1;
  LinkConfig faulty;
  faulty.drop_probability = fault.drop;
  faulty.reorder_probability = fault.reorder;
  faulty.duplicate_probability = fault.duplicate;
  faulty.corrupt_probability = fault.corrupt;
  faulty.burst_drop_period = fault.burst_period;
  faulty.burst_drop_length = fault.burst_length;
  faulty.fault_seed = 4242;
  config.client_to_server_link = faulty;

  Testbed::TransferOptions transfer;
  transfer.deadline = SimTime::FromSeconds(30);
  const PatternCheck delivered = Testbed(config).RunTransfer(transfer)[0];

  EXPECT_EQ(delivered.first_mismatch, std::nullopt);
  EXPECT_EQ(delivered.bytes, transfer.bytes_per_flow);
}

INSTANTIATE_TEST_SUITE_P(
    FaultGrid, RobustnessMatrixTest,
    ::testing::Combine(::testing::ValuesIn(kFaults), ::testing::Bool()),
    [](const auto& name_info) {
      return std::string(std::get<0>(name_info.param).name) +
             (std::get<1>(name_info.param) ? "_optimized" : "_baseline");
    });

}  // namespace
}  // namespace tcprx
