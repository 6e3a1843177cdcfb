// Flow-control tests: manual-consume receive buffering, zero-window advertisement
// with receiver SWS avoidance, out-of-window trimming, the sender persist timer, and
// end-to-end recovery when a stalled application resumes.

#include <gtest/gtest.h>

#include "src/tcp/tcp_connection.h"
#include "src/util/event_loop.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::ConnectionPair;
using testutil::FrameOptions;
using testutil::MakeFrame;

// Config hook: the server consumes by Read() from a receive buffer of `bytes`.
ConnectionPair::ConfigHook ServerBuffer(uint32_t bytes) {
  return [bytes](TcpConnectionConfig& config, bool client) {
    if (!client) {
      config.auto_consume = false;
      config.recv_window = bytes;
    }
  };
}

// The window the server advertised in the last frame it sent (0 before any).
uint16_t LastServerWindow(const ConnectionPair& pair) {
  for (auto it = pair.wire_log.rbegin(); it != pair.wire_log.rend(); ++it) {
    if (!it->first) {
      auto view = ParseTcpFrame(it->second);
      return view.has_value() ? view->tcp.window : 0;
    }
  }
  return 0;
}

TEST(FlowControl, StalledAppClosesWindowAndStopsSender) {
  ConnectionPair pair(ServerBuffer(8 * 1448));
  pair.Establish();
  pair.client->SendSynthetic(100 * 1448);
  pair.Run(300);
  // Sender filled the buffer and stopped; the advertised window went to zero.
  EXPECT_EQ(pair.server->ReceiveBufferedBytes(), 8u * 1448);
  EXPECT_EQ(LastServerWindow(pair), 0);  // server's last advertisement
  const uint64_t in_flight = pair.client->snd_nxt_ext() - pair.client->snd_una_ext();
  EXPECT_LE(in_flight, 1u);  // at most a window probe outstanding
}

TEST(FlowControl, ReadReopensWindowAndTransferCompletes) {
  ConnectionPair pair(ServerBuffer(8 * 1448));
  pair.Establish();
  constexpr uint64_t kTotal = 60 * 1448;
  pair.client->SendSynthetic(kTotal);

  // The application drains 2 KiB every 20 ms.
  uint64_t consumed = 0;
  std::function<void()> drain = [&] {
    std::vector<uint8_t> buf(2048);
    consumed += pair.server->Read(buf);
    pair.loop.ScheduleAfter(SimDuration::FromMillis(20), drain);
  };
  pair.loop.ScheduleAfter(SimDuration::FromMillis(20), drain);

  pair.Run(3000);
  EXPECT_EQ(consumed + pair.server->ReceiveBufferedBytes(), kTotal);
  EXPECT_EQ(pair.server->bytes_received(), kTotal);
}

TEST(FlowControl, ReadReturnsExactStreamBytes) {
  ConnectionPair pair(ServerBuffer(16 * 1448));
  pair.Establish();
  pair.client->SendSynthetic(4 * 1448);
  pair.Run(50);
  std::vector<uint8_t> buf(4 * 1448);
  const size_t n = pair.server->Read(buf);
  ASSERT_EQ(n, 4u * 1448);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(buf[i], SendStream::PatternByte(i)) << i;
  }
  EXPECT_EQ(pair.server->ReceiveBufferedBytes(), 0u);
}

TEST(FlowControl, SwsAvoidanceNeverAdvertisesDribbles) {
  ConnectionPair pair(ServerBuffer(4 * 1448));
  pair.Establish();
  pair.client->SendSynthetic(50 * 1448);

  // Drain in tiny 100-byte sips: the window must stay 0 (never a sub-MSS dribble)
  // until a full MSS of space opens.
  std::vector<uint16_t> advertisements;
  std::function<void()> sip = [&] {
    std::vector<uint8_t> buf(100);
    pair.server->Read(buf);
    advertisements.push_back(LastServerWindow(pair));
    pair.loop.ScheduleAfter(SimDuration::FromMillis(5), sip);
  };
  pair.loop.ScheduleAfter(SimDuration::FromMillis(30), sip);
  pair.Run(400);
  for (const uint16_t w : advertisements) {
    EXPECT_TRUE(w == 0 || w >= 1448) << "SWS violation: advertised " << w;
  }
}

TEST(FlowControl, PersistProbeSurvivesLostWindowUpdate) {
  ConnectionPair pair(ServerBuffer(4 * 1448));
  pair.Establish();
  pair.client->SendSynthetic(20 * 1448);
  pair.Run(200);  // buffer full, window closed
  ASSERT_EQ(pair.server->ReceiveBufferedBytes(), 4u * 1448);

  // Drop the next pure ACK from the server (the window update), then drain the
  // buffer. Without the persist timer the connection would deadlock.
  int acks_to_drop = 1;
  pair.filter = [&](bool from_client, const std::vector<uint8_t>& frame) {
    if (!from_client && acks_to_drop > 0) {
      auto view = ParseTcpFrame(frame);
      if (view.has_value() && view->payload_size == 0 && view->tcp.flags == kTcpAck) {
        --acks_to_drop;
        return false;
      }
    }
    return true;
  };
  std::vector<uint8_t> buf(4 * 1448);
  pair.server->Read(buf);  // reopens the window; the update ACK is dropped
  ASSERT_EQ(acks_to_drop, 0);
  pair.filter = nullptr;

  pair.Run(8000);  // persist probes + RTO recovery
  EXPECT_GE(pair.client->window_probes_sent(), 1u);
  // Probing discovered the reopened window and the transfer resumed, refilling the
  // buffer (it then correctly stalls again, since the app never drains a second
  // time).
  EXPECT_GT(pair.server->bytes_received(), 4u * 1448 + 2u * 1448);
  EXPECT_GT(pair.server->ReceiveBufferedBytes(), 0u);
}

TEST(FlowControl, OutOfWindowDataIsTrimmedNotBuffered) {
  ConnectionPair pair(ServerBuffer(2 * 1448));
  pair.Establish();
  pair.client->SendSynthetic(10 * 1448);
  pair.Run(100);
  // Buffer capacity is the hard cap regardless of how much the sender pushed.
  EXPECT_LE(pair.server->ReceiveBufferedBytes(), 2u * 1448);
  EXPECT_EQ(pair.server->rcv_nxt_ext() - 1001, pair.server->bytes_received());
}

TEST(FlowControlDeathTest, ReadRequiresManualMode) {
  EventLoop loop;
  TcpConnectionConfig config;
  config.local_ip = testutil::ServerIp();
  config.remote_ip = testutil::ClientIp();
  TcpConnection conn(config, loop, [](TcpOutputItem) {});
  std::vector<uint8_t> buf(10);
  EXPECT_DEATH(conn.Read(buf), "auto_consume");
}

}  // namespace
}  // namespace tcprx
