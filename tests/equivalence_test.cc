// The flagship correctness properties of the paper's optimizations, tested as
// equivalences between a baseline stack and an optimized stack fed *identical* input:
//
//  1. ACK-sequence equivalence (sections 3.4.2 + 4.2): same number of ACKs, same ack
//     numbers, same wire bytes — whether ACKs are generated one by one, batched by
//     aggregation, or expanded from templates by the driver.
//  2. Congestion-window equivalence (section 3.4.1): a sender whose inbound
//     (piggybacked) ACKs pass through an aggregating receiver sees the exact same
//     cwnd trace as without aggregation.
//  3. Aggregation-limit-1 equivalence (section 5.5): limit 1 produces byte-identical
//     output to the baseline stack.
//  4. Stream transparency under loss/reordering/duplication (section 3.6), at full
//     testbed scale with real recovery dynamics.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/sim/testbed.h"
#include "src/stack/network_stack.h"
#include "src/tcp/send_stream.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

// Drives one NetworkStack directly, frame by frame, capturing everything it
// transmits. Deterministic: no NICs, no links, no CPU clock.
class StackHarness {
 public:
  explicit StackHarness(const StackConfig& config)
      : stack_(std::make_unique<NetworkStack>(
            config, loop_, [this](int, std::vector<uint8_t> frame) {
              sent_.push_back(std::move(frame));
            })) {
    stack_->AddLocalAddress(testutil::ServerIp(), 0);
    stack_->AddRoute(testutil::ClientIp(), 0);
    stack_->Listen(5001, [this](TcpConnection& conn) { server_conn_ = &conn; });
  }

  void Feed(std::vector<uint8_t> frame) {
    PacketPtr p = stack_->packet_pool().AllocateMoved(std::move(frame));
    p->nic_checksum_verified = true;
    stack_->ReceiveFrame(std::move(p));
  }

  // Marks the rx queue as drained: work-conserving flush point.
  void Idle() { stack_->OnReceiveQueueEmpty(); }

  // Performs the server side of the handshake; returns the server's ISS.
  uint32_t Handshake() {
    FrameOptions syn;
    syn.flags = kTcpSyn;
    syn.seq = 999;  // client ISS
    syn.ack = 0;
    Feed(MakeFrame(syn, 0));
    Idle();
    // SYN-ACK is the first transmitted frame.
    EXPECT_EQ(sent_.size(), 1u);
    auto synack = ParseTcpFrame(sent_.back());
    EXPECT_TRUE(synack.has_value());
    const uint32_t server_iss = synack->tcp.seq;
    FrameOptions ack;
    ack.seq = 1000;
    ack.ack = server_iss + 1;
    Feed(MakeFrame(ack, 0));
    Idle();
    sent_.clear();
    return server_iss;
  }

  // All pure-ACK ack numbers transmitted so far, in order.
  std::vector<uint32_t> SentAckNumbers() const {
    std::vector<uint32_t> acks;
    for (const auto& frame : sent_) {
      auto view = ParseTcpFrame(frame);
      EXPECT_TRUE(view.has_value());
      if (view->payload_size == 0 && view->tcp.flags == kTcpAck) {
        acks.push_back(view->tcp.ack);
      }
    }
    return acks;
  }

  NetworkStack& stack() { return *stack_; }
  EventLoop& loop() { return loop_; }
  TcpConnection* server_conn() { return server_conn_; }
  const std::vector<std::vector<uint8_t>>& sent() const { return sent_; }
  std::vector<std::vector<uint8_t>>& sent() { return sent_; }

 private:
  EventLoop loop_;
  std::unique_ptr<NetworkStack> stack_;
  std::vector<std::vector<uint8_t>> sent_;
  TcpConnection* server_conn_ = nullptr;
};

StackConfig BaselineConfig() {
  StackConfig config = StackConfig::Baseline(SystemType::kNativeUp);
  return config;
}

StackConfig OptimizedConfig(size_t limit, bool offload) {
  StackConfig config = StackConfig::Optimized(SystemType::kNativeUp);
  config.aggregation_limit = limit;
  config.ack_offload = offload;
  return config;
}

void Feed(StackHarness& harness, const FrameOptions& options) {
  harness.Feed(MakeFrame(options, 1448));
}

// Feeds `total` in-sequence MTU data frames in batches of `batch`, calling Idle()
// between batches (the aggregator's flush points).
void FeedDataFrames(StackHarness& harness, uint32_t server_iss, size_t total, size_t batch) {
  uint32_t seq = 1000;
  size_t fed = 0;
  while (fed < total) {
    for (size_t i = 0; i < batch && fed < total; ++i, ++fed) {
      FrameOptions options;
      options.seq = seq;
      options.ack = server_iss + 1;
      options.ts_value = 500 + static_cast<uint32_t>(fed / 50);
      Feed(harness, options);
      seq += 1448;
    }
    harness.Idle();
  }
}

class AckEquivalenceTest : public ::testing::TestWithParam<std::tuple<size_t, bool, size_t>> {
};

TEST_P(AckEquivalenceTest, AckSequencesMatchBaseline) {
  const auto [limit, offload, batch] = GetParam();

  StackHarness baseline(BaselineConfig());
  const uint32_t iss_a = baseline.Handshake();
  FeedDataFrames(baseline, iss_a, 60, /*batch=*/1);

  StackHarness optimized(OptimizedConfig(limit, offload));
  const uint32_t iss_b = optimized.Handshake();
  FeedDataFrames(optimized, iss_b, 60, batch);

  // Same server ISS generator => ack numbers are directly comparable.
  ASSERT_EQ(iss_a, iss_b);
  const auto acks_a = baseline.SentAckNumbers();
  const auto acks_b = optimized.SentAckNumbers();
  EXPECT_EQ(acks_a, acks_b);
  // 60 full segments, delayed ACK every second one: exactly 30 ACKs.
  EXPECT_EQ(acks_a.size(), 30u);
}

INSTANTIATE_TEST_SUITE_P(
    LimitsOffloadBatches, AckEquivalenceTest,
    ::testing::Values(std::make_tuple(1u, false, 1u), std::make_tuple(4u, false, 4u),
                      std::make_tuple(20u, false, 20u), std::make_tuple(20u, true, 20u),
                      std::make_tuple(20u, true, 7u), std::make_tuple(8u, true, 32u),
                      std::make_tuple(20u, true, 60u)),
    [](const auto& name_info) {
      return "limit" + std::to_string(std::get<0>(name_info.param)) +
             (std::get<1>(name_info.param) ? "_offload" : "_nooffload") + "_batch" +
             std::to_string(std::get<2>(name_info.param));
    });

TEST(Equivalence, LimitOneIsByteIdenticalToBaseline) {
  StackHarness baseline(BaselineConfig());
  const uint32_t iss_a = baseline.Handshake();
  FeedDataFrames(baseline, iss_a, 40, 1);

  StackHarness limit1(OptimizedConfig(1, true));
  const uint32_t iss_b = limit1.Handshake();
  FeedDataFrames(limit1, iss_b, 40, 5);

  ASSERT_EQ(iss_a, iss_b);
  ASSERT_EQ(baseline.sent().size(), limit1.sent().size());
  for (size_t i = 0; i < baseline.sent().size(); ++i) {
    EXPECT_EQ(baseline.sent()[i], limit1.sent()[i]) << "frame " << i;
  }
}

TEST(Equivalence, CwndTraceIdenticalUnderAggregation) {
  // Bidirectional case: the server sends bulk data; the client's data segments carry
  // piggybacked ACKs for it. With aggregation those segments coalesce, and only the
  // per-fragment ACK replay of section 3.4.1 keeps the server's congestion window
  // evolution identical.
  auto run = [](const StackConfig& config, size_t batch) {
    StackHarness harness(config);
    const uint32_t server_iss = harness.Handshake();
    TcpConnection* server = harness.server_conn();
    EXPECT_NE(server, nullptr);
    server->congestion().EnableTrace();
    server->SendSynthetic(UINT64_MAX / 4);
    harness.loop().RunUntil(harness.loop().Now() + SimDuration::FromMillis(1));

    uint32_t client_seq = 1000;
    uint32_t acked = 0;
    for (int round = 0; round < 30; ++round) {
      // Ack whatever the server has sent so far, in 1448-byte steps spread over the
      // batch of data frames we feed back.
      const uint64_t outstanding = server->snd_nxt_ext() - (server_iss + 1);
      for (size_t i = 0; i < batch; ++i) {
        if (acked + 1448 <= outstanding) {
          acked += 1448;
        }
        FrameOptions options;
        options.seq = client_seq;
        options.ack = server_iss + 1 + acked;
        options.ts_value = 600 + static_cast<uint32_t>(round);
        client_seq += 1448;
        harness.Feed(MakeFrame(options, 1448));
      }
      harness.Idle();
      harness.loop().RunUntil(harness.loop().Now() + SimDuration::FromMicros(100));
    }
    return server->congestion().trace();
  };

  for (const size_t batch : {4u, 10u, 20u}) {
    const auto baseline_trace = run(BaselineConfig(), batch);
    const auto optimized_trace = run(OptimizedConfig(20, true), batch);
    EXPECT_EQ(baseline_trace, optimized_trace) << "batch " << batch;
    EXPECT_GT(baseline_trace.size(), 20u);  // the trace actually recorded growth
  }
}

TEST(Equivalence, DuplicateAcksPreservedPerFragmentForFastRetransmit) {
  // An out-of-order aggregated packet must produce one dup ACK per constituent
  // fragment (so the sender's 3-dup-ack threshold fires as without aggregation).
  StackHarness optimized(OptimizedConfig(20, true));
  const uint32_t iss = optimized.Handshake();

  // First 2 in-order frames, then skip one MSS and feed 4 in-sequence frames beyond
  // the hole in one batch.
  FeedDataFrames(optimized, iss, 2, 2);
  optimized.sent().clear();
  uint32_t seq = 1000 + 2 * 1448 + 1448;  // hole of one MSS
  for (int i = 0; i < 4; ++i) {
    FrameOptions options;
    options.seq = seq;
    options.ack = iss + 1;
    options.ts_value = 600;  // not older than the in-order data (PAWS would drop)
    optimized.Feed(MakeFrame(options, 1448));
    seq += 1448;
  }
  optimized.Idle();
  const auto acks = optimized.SentAckNumbers();
  ASSERT_EQ(acks.size(), 4u);  // one dup ACK per fragment
  for (const uint32_t ack : acks) {
    EXPECT_EQ(ack, 1000u + 2 * 1448);  // all pointing at the hole
  }
}

TEST(Equivalence, StreamTransparentUnderLossReorderDuplication) {
  // Full-testbed property: with a lossy, reordering, duplicating data path, the
  // application byte stream is still exact — with and without the optimizations.
  for (const bool optimized : {false, true}) {
    TestbedConfig config;
    config.stack = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                             : StackConfig::Baseline(SystemType::kNativeUp);
    config.stack.fill_tcp_checksums = true;  // strict end-to-end checking
    config.num_nics = 1;
    LinkConfig lossy;
    lossy.drop_probability = 0.02;
    lossy.reorder_probability = 0.02;
    lossy.duplicate_probability = 0.01;
    lossy.fault_seed = 1234;
    config.client_to_server_link = lossy;

    Testbed bed(config);
    PatternCheck delivered;
    bed.stack().Listen(5001, [&](TcpConnection& conn) {
      bed.stack().SetConnectionDataHandler(
          conn, [&](std::span<const uint8_t> data) { delivered.Feed(data); });
    });
    TcpConnection* client =
        bed.remote(0).CreateConnection(bed.ClientConnectionConfig(0, 10000, 5001));
    client->Connect();
    constexpr uint64_t kTotal = 3'000'000;
    client->SendSynthetic(kTotal);
    bed.loop().RunUntil(SimTime::FromSeconds(20));

    EXPECT_EQ(delivered.first_mismatch, std::nullopt) << (optimized ? "optimized" : "baseline");
    EXPECT_EQ(delivered.bytes, kTotal) << (optimized ? "optimized" : "baseline");
    EXPECT_GT(client->segments_retransmitted(), 0u) << "loss was actually exercised";
  }
}

TEST(Equivalence, AggregationStatsShowRealCoalescingInBatches) {
  StackHarness optimized(OptimizedConfig(20, true));
  const uint32_t iss = optimized.Handshake();
  FeedDataFrames(optimized, iss, 100, 20);
  const Aggregator* aggregator = optimized.stack().aggregator();
  ASSERT_NE(aggregator, nullptr);
  EXPECT_EQ(aggregator->stats().aggregates_delivered, 5u);
  EXPECT_EQ(optimized.stack().account().counters().net_data_packets, 100u);
  // 5 aggregates plus the two handshake passthrough packets (SYN, final ACK).
  EXPECT_EQ(optimized.stack().account().counters().host_packets, 7u);
}

}  // namespace
}  // namespace tcprx
