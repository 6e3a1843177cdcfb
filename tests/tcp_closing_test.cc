// Connection-teardown edge cases: simultaneous close, FIN loss, data in CLOSE_WAIT,
// TIME_WAIT expiry, FIN carrying data, and close during transfer.

#include <gtest/gtest.h>

#include "src/tcp/tcp_connection.h"
#include "src/util/event_loop.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::ConnectionPair;
using testutil::FrameOptions;
using testutil::MakeFrame;

TEST(TcpClosing, SimultaneousCloseReachesClosedBothSides) {
  ConnectionPair pair;
  pair.Establish();
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
  ConnectionPair pair;
  pair.Establish();
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
  ConnectionPair pair;
  pair.Establish();
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
  ConnectionPair pair;
  pair.Establish();
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
  ConnectionPair pair;
  pair.Establish();
  uint64_t received = 0;
  pair.server->set_on_data([&](std::span<const uint8_t> data) { received += data.size(); });
  pair.client->SendSynthetic(50 * 1448);
  pair.client->Close();  // queued behind 50 segments
  pair.Run(500);
  EXPECT_EQ(received, 50u * 1448);
  EXPECT_EQ(pair.server->state(), TcpState::kCloseWait);
}

TEST(TcpClosing, CloseIsIdempotent) {
  ConnectionPair pair;
  pair.Establish();
  pair.client->Close();
  pair.client->Close();
  pair.client->Close();
  pair.Run(50);
  EXPECT_EQ(pair.server->state(), TcpState::kCloseWait);
  // Exactly one FIN consumed in sequence space.
  EXPECT_EQ(pair.client->snd_nxt_ext(), pair.client->snd_una_ext());
}

TEST(TcpClosing, FinAckRaceToTimeWaitExpires) {
  ConnectionPair pair;
  pair.Establish();
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
