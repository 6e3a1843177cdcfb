// Connection-teardown edge cases: simultaneous close, FIN loss, data in CLOSE_WAIT,
// TIME_WAIT expiry, FIN carrying data, and close during transfer.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/template_ack.h"
#include "src/tcp/tcp_connection.h"
#include "src/util/event_loop.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

struct ClosePair {
  ClosePair() {
    TcpConnectionConfig client_config;
    client_config.local_ip = testutil::ClientIp();
    client_config.remote_ip = testutil::ServerIp();
    client_config.local_port = 10000;
    client_config.remote_port = 5001;
    client_config.local_mac = testutil::ClientMac();
    client_config.remote_mac = testutil::ServerMac();
    client_config.initial_seq = 1000;

    TcpConnectionConfig server_config = client_config;
    server_config.local_ip = testutil::ServerIp();
    server_config.remote_ip = testutil::ClientIp();
    server_config.local_port = 5001;
    server_config.remote_port = 10000;
    server_config.local_mac = testutil::ServerMac();
    server_config.remote_mac = testutil::ClientMac();
    server_config.initial_seq = 77000;

    client = std::make_unique<TcpConnection>(
        client_config, loop, [this](TcpOutputItem item) { Cross(true, std::move(item)); });
    server = std::make_unique<TcpConnection>(
        server_config, loop, [this](TcpOutputItem item) { Cross(false, std::move(item)); });
    server->Listen();
    client->Connect();
    loop.RunUntil(loop.Now() + SimDuration::FromMillis(5));
  }

  void Run(uint64_t ms) { loop.RunUntil(loop.Now() + SimDuration::FromMillis(ms)); }

  void Cross(bool from_client, TcpOutputItem item) {
    ExpandTemplateAck(std::move(item), [this, from_client](std::vector<uint8_t> frame) {
      if (filter && !filter(from_client, frame)) {
        return;
      }
      loop.ScheduleAfter(SimDuration::FromMicros(10),
                         [this, from_client, f = std::move(frame)]() mutable {
                           PacketPtr p = pool.AllocateMoved(std::move(f));
                           p->nic_checksum_verified = true;
                           SkBuffPtr skb = skbs.Wrap(std::move(p));
                           ASSERT_NE(skb, nullptr);
                           (from_client ? *server : *client).OnHostPacket(*skb);
                         });
    });
  }

  EventLoop loop;
  PacketPool pool;
  SkBuffPool skbs;
  std::unique_ptr<TcpConnection> client;
  std::unique_ptr<TcpConnection> server;
  std::function<bool(bool, const std::vector<uint8_t>&)> filter;
};

TEST(TcpClosing, SimultaneousCloseReachesClosedBothSides) {
  ClosePair pair;
  ASSERT_EQ(pair.client->state(), TcpState::kEstablished);
  // Both close before seeing the other's FIN.
  pair.client->Close();
  pair.server->Close();
  pair.Run(5);
  // Both went FIN_WAIT_1 -> (peer FIN) CLOSING -> (ack) TIME_WAIT.
  EXPECT_EQ(pair.client->state(), TcpState::kTimeWait);
  EXPECT_EQ(pair.server->state(), TcpState::kTimeWait);
  pair.Run(2500);  // TIME_WAIT expiry
  EXPECT_EQ(pair.client->state(), TcpState::kClosed);
  EXPECT_EQ(pair.server->state(), TcpState::kClosed);
}

TEST(TcpClosing, LostFinIsRetransmitted) {
  ClosePair pair;
  int fin_drops = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (from_client && fin_drops > 0) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->tcp.Has(kTcpFin)) {
        --fin_drops;
        return false;
      }
    }
    return true;
  };
  pair.client->Close();
  pair.Run(100);
  EXPECT_EQ(pair.server->state(), TcpState::kEstablished);  // FIN lost
  pair.Run(2500);                                           // RTO resends the FIN
  EXPECT_EQ(fin_drops, 0);
  EXPECT_EQ(pair.server->state(), TcpState::kCloseWait);
  EXPECT_EQ(pair.client->state(), TcpState::kFinWait2);
  EXPECT_GE(pair.client->segments_retransmitted(), 1u);
}

TEST(TcpClosing, DataBeforeFinAllDeliveredThenClosed) {
  ClosePair pair;
  std::vector<uint8_t> received;
  pair.server->set_on_data([&](std::span<const uint8_t> data) {
    received.insert(received.end(), data.begin(), data.end());
  });
  pair.client->Send(std::vector<uint8_t>(10 * 1448, 0x33));
  pair.client->Close();  // FIN queued behind the data
  pair.Run(200);
  EXPECT_EQ(received.size(), 10u * 1448);
  EXPECT_EQ(pair.server->state(), TcpState::kCloseWait);
  EXPECT_EQ(pair.client->state(), TcpState::kFinWait2);
}

TEST(TcpClosing, ServerRespondsAfterClientHalfClose) {
  ClosePair pair;
  pair.client->Close();
  pair.Run(10);
  ASSERT_EQ(pair.server->state(), TcpState::kCloseWait);
  std::vector<uint8_t> client_got;
  pair.client->set_on_data([&](std::span<const uint8_t> data) {
    client_got.insert(client_got.end(), data.begin(), data.end());
  });
  pair.server->Send(std::vector<uint8_t>(5000, 0x44));
  pair.Run(100);
  EXPECT_EQ(client_got.size(), 5000u);
  pair.server->Close();
  pair.Run(2500);
  EXPECT_EQ(pair.server->state(), TcpState::kClosed);
  EXPECT_EQ(pair.client->state(), TcpState::kClosed);
}

TEST(TcpClosing, CloseDuringBulkTransferFinishesCleanly) {
  ClosePair pair;
  uint64_t received = 0;
  pair.server->set_on_data([&](std::span<const uint8_t> data) { received += data.size(); });
  pair.client->SendSynthetic(50 * 1448);
  pair.client->Close();  // queued behind 50 segments
  pair.Run(500);
  EXPECT_EQ(received, 50u * 1448);
  EXPECT_EQ(pair.server->state(), TcpState::kCloseWait);
}

TEST(TcpClosing, CloseIsIdempotent) {
  ClosePair pair;
  pair.client->Close();
  pair.client->Close();
  pair.client->Close();
  pair.Run(50);
  EXPECT_EQ(pair.server->state(), TcpState::kCloseWait);
  // Exactly one FIN consumed in sequence space.
  EXPECT_EQ(pair.client->snd_nxt_ext(), pair.client->snd_una_ext());
}

TEST(TcpClosing, FinAckRaceToTimeWaitExpires) {
  ClosePair pair;
  pair.client->Close();
  pair.Run(10);
  pair.server->Close();
  pair.Run(10);
  EXPECT_EQ(pair.client->state(), TcpState::kTimeWait);
  EXPECT_EQ(pair.server->state(), TcpState::kClosed);  // LAST_ACK -> acked
  pair.Run(2500);
  EXPECT_EQ(pair.client->state(), TcpState::kClosed);
}

}  // namespace
}  // namespace tcprx
