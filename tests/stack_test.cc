// NetworkStack tests: demultiplexing, listener accept, drop paths, transmit routing,
// cost attribution per stage (including the ACK-offload cost split), and the IP
// layer / routing table / Xen path charging.

#include <gtest/gtest.h>

#include <memory>

#include "src/ip/ipv4_layer.h"
#include "src/util/byte_order.h"
#include "src/util/checksum.h"
#include "src/stack/network_stack.h"
#include "src/xen/xen_path.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

class StackTest : public ::testing::Test {
 protected:
  void Build(StackConfig config) {
    stack_ = std::make_unique<NetworkStack>(
        config, loop_, [this](int nic, std::vector<uint8_t> frame) {
          sent_.emplace_back(nic, std::move(frame));
        });
    stack_->AddLocalAddress(testutil::ServerIp(), 3);
    stack_->AddRoute(testutil::ClientIp(), 3);
  }

  void Feed(std::vector<uint8_t> frame, bool csum_ok = true) {
    PacketPtr p = stack_->packet_pool().AllocateMoved(std::move(frame));
    p->nic_checksum_verified = csum_ok;
    stack_->ReceiveFrame(std::move(p));
  }

  // SYN -> SYN-ACK -> ACK; returns the accepted server connection. The listener
  // outlives this call (tests may feed further SYNs), so it must capture a slot
  // that outlives it too — a by-reference capture of a local here corrupts the
  // stack when a later SYN re-invokes the listener.
  TcpConnection* Handshake() {
    accepted_ = nullptr;
    stack_->Listen(5001, [this](TcpConnection& conn) { accepted_ = &conn; });
    FrameOptions syn;
    syn.flags = kTcpSyn;
    syn.seq = 999;
    Feed(MakeFrame(syn, 0));
    stack_->OnReceiveQueueEmpty();
    EXPECT_NE(accepted_, nullptr);
    auto synack = ParseTcpFrame(sent_.back().second);
    EXPECT_TRUE(synack.has_value());
    FrameOptions ack;
    ack.seq = 1000;
    ack.ack = synack->tcp.seq + 1;
    Feed(MakeFrame(ack, 0));
    stack_->OnReceiveQueueEmpty();
    sent_.clear();
    return accepted_;
  }

  EventLoop loop_;
  std::unique_ptr<NetworkStack> stack_;
  std::vector<std::pair<int, std::vector<uint8_t>>> sent_;
  TcpConnection* accepted_ = nullptr;
};

TEST_F(StackTest, ListenerAcceptsAndDemuxes) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  TcpConnection* conn = Handshake();
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->state(), TcpState::kEstablished);
  EXPECT_EQ(stack_->stats().connections_accepted, 1u);

  FrameOptions data;
  data.seq = 1000;
  data.ack = static_cast<uint32_t>(conn->snd_nxt_ext());
  Feed(MakeFrame(data, 500));
  EXPECT_EQ(conn->bytes_received(), 500u);
}

TEST_F(StackTest, FrameForUnknownFlowDropped) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  FrameOptions options;
  options.dst_port = 4444;  // nobody listening
  Feed(MakeFrame(options, 100));
  EXPECT_EQ(stack_->stats().frames_dropped_no_connection, 1u);
}

TEST_F(StackTest, NonSynToListenerPortDropped) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  stack_->Listen(5001, [](TcpConnection&) {});
  Feed(MakeFrame(FrameOptions{}, 100));  // plain data, no connection yet
  EXPECT_EQ(stack_->stats().frames_dropped_no_connection, 1u);
}

TEST_F(StackTest, NotLocalAddressDropped) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  stack_->Listen(5001, [](TcpConnection&) {});
  // Destination IP that is not ours: rejected at the IP layer.
  auto frame = MakeFrame(FrameOptions{}, 10);
  frame[14 + 19] = 77;  // last octet of dst ip
  StoreBe16(frame.data() + 14 + 10, 0);
  const uint16_t csum = InternetChecksum(std::span<const uint8_t>(frame).subspan(14, 20));
  StoreBe16(frame.data() + 14 + 10, csum);
  Feed(std::move(frame));
  EXPECT_EQ(stack_->stats().frames_dropped_ip, 1u);
}

TEST_F(StackTest, GarbageFrameDropped) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  Feed(std::vector<uint8_t>(40, 0xab));
  EXPECT_EQ(stack_->stats().frames_dropped_unparseable, 1u);
}

TEST_F(StackTest, TransmitRoutedToConfiguredNic) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  Handshake();
  FrameOptions data;
  data.seq = 1000;
  Feed(MakeFrame(data, 1448));
  FrameOptions data2;
  data2.seq = 1000 + 1448;
  Feed(MakeFrame(data2, 1448));  // second full segment forces an ACK
  ASSERT_FALSE(sent_.empty());
  for (const auto& [nic, frame] : sent_) {
    EXPECT_EQ(nic, 3);  // the route for the client address
  }
}

TEST_F(StackTest, PerByteCopyChargedForDeliveredData) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  TcpConnection* conn = Handshake();
  const uint64_t before = stack_->account().Get(CostCategory::kPerByte);
  FrameOptions data;
  data.seq = 1000;
  data.ack = static_cast<uint32_t>(conn->snd_nxt_ext());
  Feed(MakeFrame(data, 1448));
  const uint64_t charged = stack_->account().Get(CostCategory::kPerByte) - before;
  EXPECT_EQ(charged, stack_->cache_model().CopyCycles(1448));
  EXPECT_EQ(stack_->account().counters().payload_bytes, 1448u);
}

TEST_F(StackTest, BaselineChargesTxPerAck) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  Handshake();
  const uint64_t tx_before = stack_->account().Get(CostCategory::kTx);
  // 4 segments -> 2 ACKs, each a full tx pass.
  uint32_t seq = 1000;
  for (int i = 0; i < 4; ++i) {
    FrameOptions data;
    data.seq = seq;
    Feed(MakeFrame(data, 1448));
    seq += 1448;
  }
  const uint64_t tx_after = stack_->account().Get(CostCategory::kTx);
  const CostParams& costs = stack_->config().costs;
  const uint64_t per_pass = costs.tcp_tx_per_ack + costs.ip_tx_per_packet +
                            costs.tcp_tx_lock_sites * costs.lock_cycles_up;
  EXPECT_EQ(tx_after - tx_before, 2 * per_pass);
  EXPECT_EQ(stack_->account().counters().acks_generated, 2u);
  EXPECT_EQ(stack_->account().counters().ack_templates, 0u);
}

TEST_F(StackTest, OffloadChargesOneTxPassPerTemplate) {
  Build(StackConfig::Optimized(SystemType::kNativeUp));
  Handshake();
  const uint64_t tx_before = stack_->account().Get(CostCategory::kTx);
  const uint64_t driver_before = stack_->account().Get(CostCategory::kDriver);
  // 8 segments in one aggregation batch -> one aggregate -> 4 ACKs in one template.
  uint32_t seq = 1000;
  for (int i = 0; i < 8; ++i) {
    FrameOptions data;
    data.seq = seq;
    Feed(MakeFrame(data, 1448));
    seq += 1448;
  }
  stack_->OnReceiveQueueEmpty();
  const CostParams& costs = stack_->config().costs;
  EXPECT_EQ(stack_->account().counters().ack_templates, 1u);
  EXPECT_EQ(stack_->account().counters().acks_generated, 4u);
  // One stack pass (template) on kTx.
  EXPECT_EQ(stack_->account().Get(CostCategory::kTx) - tx_before,
            costs.tcp_tx_per_ack + costs.ip_tx_per_packet + costs.ack_template_build_extra +
                costs.tcp_tx_lock_sites * costs.lock_cycles_up);
  // Driver expanded 4 ACKs.
  const uint64_t driver_delta = stack_->account().Get(CostCategory::kDriver) - driver_before;
  EXPECT_GE(driver_delta, 4 * (costs.ack_expand_per_ack + costs.driver_tx_per_packet));
  // All 4 ACKs physically transmitted.
  EXPECT_EQ(sent_.size(), 4u);
}

TEST_F(StackTest, XenModeChargesVirtualizationCategories) {
  Build(StackConfig::Baseline(SystemType::kXenGuest));
  TcpConnection* conn = Handshake();
  FrameOptions data;
  data.seq = 1000;
  data.ack = static_cast<uint32_t>(conn->snd_nxt_ext());
  Feed(MakeFrame(data, 1448));
  EXPECT_GT(stack_->account().Get(CostCategory::kNetback), 0u);
  EXPECT_GT(stack_->account().Get(CostCategory::kNetfront), 0u);
  EXPECT_GT(stack_->account().Get(CostCategory::kXen), 0u);
}

TEST_F(StackTest, NativeModeNeverChargesVirtualization) {
  Build(StackConfig::Optimized(SystemType::kNativeUp));
  Handshake();
  FrameOptions data;
  data.seq = 1000;
  Feed(MakeFrame(data, 1448));
  stack_->OnReceiveQueueEmpty();
  EXPECT_EQ(stack_->account().Get(CostCategory::kNetback), 0u);
  EXPECT_EQ(stack_->account().Get(CostCategory::kNetfront), 0u);
  EXPECT_EQ(stack_->account().Get(CostCategory::kXen), 0u);
}

TEST_F(StackTest, SmpChargesMoreRxThanUp) {
  Build(StackConfig::Baseline(SystemType::kNativeSmp));
  TcpConnection* conn = Handshake();
  FrameOptions data;
  data.seq = 1000;
  data.ack = static_cast<uint32_t>(conn->snd_nxt_ext());
  const uint64_t before = stack_->account().Get(CostCategory::kRx);
  Feed(MakeFrame(data, 1448));
  const uint64_t smp_rx = stack_->account().Get(CostCategory::kRx) - before;

  // The SMP charge must be exactly the UP charge plus the lock-site inflation.
  const CostParams& costs = stack_->config().costs;
  const uint64_t up_rx = costs.ip_rx_per_packet + costs.tcp_rx_per_packet +
                         costs.tcp_rx_per_segment +
                         costs.tcp_rx_lock_sites * costs.lock_cycles_up;
  const uint64_t lock_delta =
      costs.tcp_rx_lock_sites * (costs.lock_cycles_smp - costs.lock_cycles_up);
  EXPECT_EQ(smp_rx, up_rx + lock_delta);
}

TEST_F(StackTest, AggregationFactorReportedInCounters) {
  Build(StackConfig::Optimized(SystemType::kNativeUp));
  Handshake();
  uint32_t seq = 1000;
  for (int i = 0; i < 40; ++i) {
    FrameOptions data;
    data.seq = seq;
    Feed(MakeFrame(data, 1448));
    seq += 1448;
  }
  stack_->OnReceiveQueueEmpty();
  const auto& counters = stack_->account().counters();
  EXPECT_EQ(counters.net_data_packets, 40u);
  // 40 frames at limit 20 = 2 aggregates (plus 2 handshake host packets earlier).
  EXPECT_EQ(counters.host_packets, 2u + 2u);
  EXPECT_EQ(counters.aggregated_segments, 40u);
}

// ---------------------------------------------------------------------------
// Ipv4Layer / RoutingTable (unit level)
// ---------------------------------------------------------------------------

TEST(Ipv4Layer, VerdictsForGoodAndBadPackets) {
  PacketPool pool;
  Ipv4Layer layer;
  layer.AddLocalAddress(testutil::ServerIp());

  SkBuffPtr good = SkBuff::Wrap(pool.AllocateMoved(MakeFrame(FrameOptions{}, 100)));
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(layer.ValidateAndCount(*good), IpVerdict::kAccept);

  // Corrupt the checksum.
  SkBuffPtr bad = SkBuff::Wrap(pool.AllocateMoved(MakeFrame(FrameOptions{}, 100)));
  bad->head->MutableBytes()[14 + 10] ^= 0xff;
  EXPECT_EQ(layer.Validate(*bad), IpVerdict::kBadChecksum);

  EXPECT_EQ(layer.stats().accepted, 1u);
  EXPECT_EQ(layer.stats().rejected, 0u);  // Validate (non-counting) used for bad
}

TEST(Ipv4Layer, EmptyLocalSetAcceptsAnyDestination) {
  PacketPool pool;
  Ipv4Layer layer;  // no local addresses registered
  SkBuffPtr skb = SkBuff::Wrap(pool.AllocateMoved(MakeFrame(FrameOptions{}, 10)));
  EXPECT_EQ(layer.Validate(*skb), IpVerdict::kAccept);
}

TEST(RoutingTable, LookupAndMiss) {
  RoutingTable routes;
  routes.AddRoute(Ipv4Address::FromOctets(10, 0, 0, 2), 4);
  EXPECT_EQ(routes.Lookup(Ipv4Address::FromOctets(10, 0, 0, 2)), 4);
  EXPECT_EQ(routes.Lookup(Ipv4Address::FromOctets(10, 0, 0, 9)), -1);
}

// ---------------------------------------------------------------------------
// XenPathModel (unit level)
// ---------------------------------------------------------------------------

TEST(XenPath, PerFragmentCostsScaleWithChainLength) {
  const CostParams costs;
  const CacheModel cache(CacheParams{}, PrefetchMode::kFull);
  const XenPathModel xen(costs, cache);

  PacketPool pool;

  auto charge_for = [&](size_t frags) {
    SkBuffPtr skb = SkBuff::Wrap(pool.AllocateMoved(MakeFrame(FrameOptions{}, 1448)));
    for (size_t i = 0; i < frags; ++i) {
      skb->frags.push_back(pool.AllocateMoved(MakeFrame(FrameOptions{}, 1448)));
    }
    CycleAccount account;
    Charger charger(costs, account, false);
    xen.ChargeGuestRx(charger, *skb);
    return account.Get(CostCategory::kNetback);
  };

  const uint64_t one = charge_for(0);
  const uint64_t three = charge_for(2);
  EXPECT_EQ(three - one, 2 * costs.netback_per_fragment);
}

TEST_F(StackTest, ClosedConnectionFreesFlowForReuse) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  TcpConnection* first = Handshake();
  ASSERT_NE(first, nullptr);
  bool closed = false;
  stack_->SetConnectionClosedHandler(*first, [&] { closed = true; });

  // Client closes; server answers; force full teardown via RST for brevity.
  FrameOptions rst;
  rst.flags = kTcpRst;
  rst.seq = 1000;
  Feed(MakeFrame(rst, 0));
  EXPECT_TRUE(closed);
  EXPECT_EQ(first->state(), TcpState::kClosed);

  // The same 4-tuple can connect again.
  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 50000;
  sent_.clear();
  Feed(MakeFrame(syn, 0));
  EXPECT_EQ(stack_->stats().connections_accepted, 2u);
  ASSERT_FALSE(sent_.empty());
  auto synack = ParseTcpFrame(sent_.back().second);
  ASSERT_TRUE(synack.has_value());
  EXPECT_TRUE(synack->tcp.Has(kTcpSyn));
  EXPECT_EQ(synack->tcp.ack, 50001u);
}

TEST_F(StackTest, StaleConnectionObjectSurvivesReuse) {
  Build(StackConfig::Baseline(SystemType::kNativeUp));
  TcpConnection* first = Handshake();
  FrameOptions rst;
  rst.flags = kTcpRst;
  rst.seq = 1000;
  Feed(MakeFrame(rst, 0));
  // The old object is still safely inspectable after the flow was reused.
  FrameOptions syn;
  syn.flags = kTcpSyn;
  syn.seq = 60000;
  Feed(MakeFrame(syn, 0));
  EXPECT_EQ(first->state(), TcpState::kClosed);
  EXPECT_EQ(first->bytes_received(), 0u);
}

TEST(XenPath, TxChargesAllStagesOnce) {
  const CostParams costs;
  const CacheModel cache(CacheParams{}, PrefetchMode::kFull);
  const XenPathModel xen(costs, cache);
  CycleAccount account;
  Charger charger(costs, account, false);
  xen.ChargeGuestTx(charger);
  EXPECT_EQ(account.Get(CostCategory::kNetback),
            costs.netback_per_packet + costs.netback_per_fragment);
  EXPECT_EQ(account.Get(CostCategory::kNetfront),
            costs.netfront_per_packet + costs.netfront_per_fragment);
  EXPECT_EQ(account.Get(CostCategory::kNonProto), costs.bridge_per_packet);
}

}  // namespace
}  // namespace tcprx
