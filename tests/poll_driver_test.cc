// Poll-mode driver tests: interrupt -> poll transition, round-robin draining across
// NICs, CPU-time serialization, and the work-conserving flush when the rings run dry
// (the property behind the paper's Table 1).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/cpu_clock.h"
#include "src/driver/poll_driver.h"
#include "src/nic/nic.h"
#include "src/stack/network_stack.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

class PollDriverTest : public ::testing::Test {
 protected:
  void Build(StackConfig config, size_t num_nics = 2) {
    stack_ = std::make_unique<NetworkStack>(
        config, loop_, [this](int nic, std::vector<uint8_t> frame) {
          sent_.emplace_back(nic, std::move(frame));
        });
    cpu_ = std::make_unique<CpuClock>(kCosts.cpu_hz);
    driver_ = std::make_unique<PollDriver>(loop_, *stack_, *cpu_);
    for (size_t i = 0; i < num_nics; ++i) {
      nics_.push_back(std::make_unique<SimulatedNic>(static_cast<int>(i), NicConfig{},
                                                     loop_, stack_->packet_pool()));
      driver_->AttachNic(nics_.back().get());
      stack_->AddLocalAddress(testutil::ServerIp(), static_cast<int>(i));
    }
    stack_->AddRoute(testutil::ClientIp(), 0);
    stack_->Listen(5001, [](TcpConnection&) {});
  }

  EventLoop loop_;
  std::unique_ptr<NetworkStack> stack_;
  std::unique_ptr<CpuClock> cpu_;
  std::unique_ptr<PollDriver> driver_;
  std::vector<std::unique_ptr<SimulatedNic>> nics_;
  std::vector<std::pair<int, std::vector<uint8_t>>> sent_;
};

TEST_F(PollDriverTest, InterruptDrainsSingleFrame) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 1;
  nics_[0]->DeliverFromWire(MakeFrame(syn, 0));
  loop_.RunUntil(SimTime::FromMillis(1));
  EXPECT_EQ(driver_->stats().wakeups, 1u);
  EXPECT_EQ(driver_->stats().frames_polled, 1u);
  EXPECT_TRUE(nics_[0]->RxEmpty(0));
  EXPECT_FALSE(driver_->polling());
  // The SYN produced a SYN-ACK, transmitted after the processing time.
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_GT(cpu_->busy_cycles(), 0u);
}

TEST_F(PollDriverTest, DrainsAllNicsRoundRobin) {
  Build(StackConfig::Baseline(SystemType::kNativeUp), 3);
  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 1;
  for (auto& nic : nics_) {
    nic->DeliverFromWire(MakeFrame(syn, 0));
    syn.seq += 100;
    syn.src_port += 1;
  }
  loop_.RunUntil(SimTime::FromMillis(2));
  EXPECT_EQ(driver_->stats().frames_polled, 3u);
  for (auto& nic : nics_) {
    EXPECT_TRUE(nic->RxEmpty(0));
  }
}

TEST_F(PollDriverTest, WorkConservingFlushOnIdle) {
  // With aggregation enabled, a lone data packet must be flushed to the stack the
  // moment the rings are empty — not held for more fragments (section 3.5).
  Build(StackConfig::Optimized(SystemType::kNativeUp));
  // Establish a connection first.
  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 999;
  nics_[0]->DeliverFromWire(MakeFrame(syn, 0));
  loop_.RunUntil(SimTime::FromMillis(1));
  auto synack = ParseTcpFrame(sent_.back().second);
  ASSERT_TRUE(synack.has_value());
  FrameOptions ack;
  ack.seq = 1000;
  ack.ack = synack->tcp.seq + 1;
  nics_[0]->DeliverFromWire(MakeFrame(ack, 0));
  loop_.RunUntil(SimTime::FromMillis(2));

  const uint64_t delivered_before = stack_->account().counters().payload_bytes;
  FrameOptions data;
  data.seq = 1000;
  data.ack = synack->tcp.seq + 1;
  nics_[0]->DeliverFromWire(MakeFrame(data, 777));
  loop_.RunUntil(SimTime::FromMillis(3));
  // Delivered without waiting for 19 more packets.
  EXPECT_EQ(stack_->account().counters().payload_bytes - delivered_before, 777u);
  EXPECT_GE(driver_->stats().idle_flushes, 1u);
}

TEST_F(PollDriverTest, BacklogFormsAggregates) {
  Build(StackConfig::Optimized(SystemType::kNativeUp));
  // Handshake.
  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 999;
  nics_[0]->DeliverFromWire(MakeFrame(syn, 0));
  loop_.RunUntil(SimTime::FromMillis(1));
  auto synack = ParseTcpFrame(sent_.back().second);
  ASSERT_TRUE(synack.has_value());
  FrameOptions ack;
  ack.seq = 1000;
  ack.ack = synack->tcp.seq + 1;
  nics_[0]->DeliverFromWire(MakeFrame(ack, 0));
  loop_.RunUntil(SimTime::FromMillis(2));

  // Queue 12 data frames before the interrupt fires: they are all in the ring when
  // polling starts, so they aggregate.
  uint32_t seq = 1000;
  for (int i = 0; i < 12; ++i) {
    FrameOptions data;
    data.seq = seq;
    data.ack = synack->tcp.seq + 1;
    nics_[0]->DeliverFromWire(MakeFrame(data, 1448));
    seq += 1448;
  }
  loop_.RunUntil(SimTime::FromMillis(4));
  const auto& counters = stack_->account().counters();
  EXPECT_EQ(counters.net_data_packets, 12u);
  EXPECT_EQ(counters.aggregated_segments, 12u);  // all coalesced
  EXPECT_GE(stack_->aggregator()->stats().aggregates_delivered, 1u);
}

TEST_F(PollDriverTest, CpuTimeSerializesProcessing) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  // Two frames queued: the second is processed only after the first's cycles.
  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 1;
  nics_[0]->DeliverFromWire(MakeFrame(syn, 0));
  FrameOptions syn2 = syn;
  syn2.src_port = 10001;
  nics_[0]->DeliverFromWire(MakeFrame(syn2, 0));
  loop_.RunUntil(SimTime::FromMillis(1));
  EXPECT_EQ(driver_->stats().frames_polled, 2u);
  // Total busy time spans both packets' processing.
  EXPECT_GT(cpu_->busy_cycles(), 5000u);
}

TEST_F(PollDriverTest, HandOffsArriveInTheOrderTheirOwnEventsWould) {
  // Frames handed from other cores wait for their hand-off times in the driver's
  // queue. One handed later but due earlier overtakes, and ties keep hand-off order:
  // each arrives exactly where an event scheduled at its hand-off would run.
  Build(StackConfig::Baseline(SystemType::kNativeUp), 1);
  std::vector<std::string> order;
  const auto probe = [&](uint64_t at_ns, const char* name) {
    loop_.ScheduleAt(SimTime::FromNanos(at_ns), [&order, this, name] {
      order.push_back(std::string(name) + (driver_->polling() ? " polling" : " idle"));
    });
  };
  const auto hand_off = [&](uint64_t at_ns, uint16_t port) {
    FrameOptions syn;
    syn.flags = kTcpSyn;
    syn.src_port = port;
    driver_->HandOff(stack_->packet_pool().AllocateMoved(MakeFrame(syn, 0)),
                     SimTime::FromNanos(at_ns));
  };
  probe(100, "before");
  hand_off(300, 10003);
  hand_off(100, 10001);  // overtakes the frame due at 300
  hand_off(100, 10002);
  probe(100, "after");
  loop_.RunUntil(SimTime::FromMillis(1));

  EXPECT_EQ(order, (std::vector<std::string>{"before idle", "after polling"}));
  EXPECT_EQ(driver_->stats().backlog_polled, 3u);
  EXPECT_EQ(driver_->stats().wakeups, 1u);
  std::vector<uint16_t> answered;
  for (const auto& [nic, frame] : sent_) {
    const auto synack = ParseTcpFrame(frame);
    ASSERT_TRUE(synack.has_value());
    answered.push_back(synack->tcp.dst_port);
  }
  EXPECT_EQ(answered, (std::vector<uint16_t>{10001, 10002, 10003}));
}

TEST_F(PollDriverTest, BacklogOverflowDropsTheFramesPastTheLimit) {
  // Every hand-off of one instant arrives before the poll step it wakes, so a burst
  // longer than the backlog drops its tail and the accepted frames run in order.
  Build(StackConfig::Baseline(SystemType::kNativeUp), 1);
  constexpr size_t kBurst = PollDriver::kBacklogLimit + 3;
  for (size_t i = 0; i < kBurst; ++i) {
    FrameOptions syn;
    syn.flags = kTcpSyn;
    syn.src_port = static_cast<uint16_t>(10000 + i);
    driver_->HandOff(stack_->packet_pool().AllocateMoved(MakeFrame(syn, 0)),
                     SimTime::FromNanos(100));
  }
  loop_.RunUntil(SimTime::FromMillis(100));  // before any SYN-ACK retransmits

  EXPECT_EQ(driver_->stats().backlog_drops, 3u);
  EXPECT_EQ(driver_->stats().backlog_polled, PollDriver::kBacklogLimit);
  std::vector<uint16_t> answered;
  for (const auto& [nic, frame] : sent_) {
    const auto synack = ParseTcpFrame(frame);
    ASSERT_TRUE(synack.has_value());
    answered.push_back(synack->tcp.dst_port);
  }
  std::vector<uint16_t> expected(PollDriver::kBacklogLimit);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<uint16_t>(10000 + i);
  }
  EXPECT_EQ(answered, expected);
}

}  // namespace
}  // namespace tcprx
