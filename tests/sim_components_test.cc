// Unit tests for the remaining testbed components: RemoteNode demultiplexing and
// batch-ACK expansion, Testbed address/topology invariants, and the report helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/sim/remote_node.h"
#include "src/sim/report.h"
#include "src/sim/testbed.h"
#include "src/tcp/reassembly.h"
#include "src/util/harness_counters.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::FrameOptions;
using testutil::MakeFrame;

// ---------------------------------------------------------------------------
// RemoteNode
// ---------------------------------------------------------------------------

TEST(RemoteNode, TransmitsConnectionOutput) {
  EventLoop loop;
  std::vector<std::vector<uint8_t>> wire;
  RemoteNode node(loop, [&](std::vector<uint8_t> f) { wire.push_back(std::move(f)); });

  TcpConnectionConfig config;
  config.local_ip = testutil::ClientIp();
  config.remote_ip = testutil::ServerIp();
  config.local_port = 10000;
  config.remote_port = 5001;
  config.local_mac = testutil::ClientMac();
  config.remote_mac = testutil::ServerMac();
  TcpConnection* conn = node.CreateConnection(config);
  conn->Connect();
  ASSERT_EQ(wire.size(), 1u);
  auto syn = ParseTcpFrame(wire[0]);
  ASSERT_TRUE(syn.has_value());
  EXPECT_TRUE(syn->tcp.Has(kTcpSyn));
}

TEST(RemoteNode, DemuxesIncomingToRightConnection) {
  EventLoop loop;
  RemoteNode node(loop, [](std::vector<uint8_t>) {});

  TcpConnectionConfig a;
  a.local_ip = testutil::ClientIp();
  a.remote_ip = testutil::ServerIp();
  a.local_port = 10000;
  a.remote_port = 5001;
  a.local_mac = testutil::ClientMac();
  a.remote_mac = testutil::ServerMac();
  TcpConnectionConfig b = a;
  b.local_port = 10001;
  TcpConnection* conn_a = node.CreateConnection(a);
  TcpConnection* conn_b = node.CreateConnection(b);
  conn_a->Listen();
  conn_b->Listen();

  // SYN addressed to port 10001 (server->client direction).
  TcpFrameSpec spec;
  spec.src_mac = testutil::ServerMac();
  spec.dst_mac = testutil::ClientMac();
  spec.src_ip = testutil::ServerIp();
  spec.dst_ip = testutil::ClientIp();
  spec.tcp.src_port = 5001;
  spec.tcp.dst_port = 10001;
  spec.tcp.seq = 1;
  spec.tcp.flags = kTcpSyn;
  node.OnWireFrame(BuildTcpFrame(spec));

  EXPECT_EQ(conn_a->state(), TcpState::kListen);
  EXPECT_EQ(conn_b->state(), TcpState::kSynReceived);
  EXPECT_EQ(node.frames_received(), 1u);
}

TEST(RemoteNode, IgnoresUnknownFlowsAndGarbage) {
  EventLoop loop;
  RemoteNode node(loop, [](std::vector<uint8_t>) {});
  node.OnWireFrame(std::vector<uint8_t>(60, 0xaa));  // garbage
  node.OnWireFrame(MakeFrame(FrameOptions{}, 10));   // no matching connection
  EXPECT_EQ(node.frames_received(), 2u);             // counted, not crashed
}

// ---------------------------------------------------------------------------
// Testbed topology
// ---------------------------------------------------------------------------

TEST(TestbedTopology, AddressesAreDistinctPerNic) {
  TestbedConfig config;
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 5;
  Testbed bed(config);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      EXPECT_FALSE(bed.server_ip(i) == bed.server_ip(j));
      EXPECT_FALSE(bed.client_ip(i) == bed.client_ip(j));
      EXPECT_FALSE(bed.server_mac(i) == bed.server_mac(j));
    }
    EXPECT_FALSE(bed.server_ip(i) == bed.client_ip(i));
  }
}

TEST(TestbedTopology, ClientConfigPointsAtServer) {
  TestbedConfig config;
  config.num_nics = 2;
  Testbed bed(config);
  const TcpConnectionConfig c = bed.ClientConnectionConfig(1, 12345, 80);
  EXPECT_EQ(c.local_ip, bed.client_ip(1));
  EXPECT_EQ(c.remote_ip, bed.server_ip(1));
  EXPECT_EQ(c.local_port, 12345);
  EXPECT_EQ(c.remote_port, 80);
}

TEST(TestbedTopology, IndependentRunsAreDeterministic) {
  auto run = [] {
    TestbedConfig config;
    config.stack = StackConfig::Optimized(SystemType::kNativeUp);
    config.stack.fill_tcp_checksums = false;
    config.num_nics = 2;
    Testbed bed(config);
    Testbed::StreamOptions options;
    options.warmup = SimDuration::FromMillis(50);
    options.measure = SimDuration::FromMillis(100);
    return bed.RunStream(options);
  };
  const StreamResult a = run();
  const StreamResult b = run();
  EXPECT_EQ(a.data_packets, b.data_packets);
  EXPECT_DOUBLE_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_DOUBLE_EQ(a.total_cycles_per_packet, b.total_cycles_per_packet);
}

// ---------------------------------------------------------------------------
// Stream payload: written only where something reads it
// ---------------------------------------------------------------------------

// Two NICs, checksums left to the NIC, and loss on the data path, so the senders
// retransmit too.
TestbedConfig LossyStreamConfig() {
  TestbedConfig config;
  config.stack = StackConfig::Optimized(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 2;
  LinkConfig lossy;
  lossy.drop_probability = 0.005;
  config.client_to_server_link = lossy;
  return config;
}

Testbed::StreamOptions ShortStream() {
  Testbed::StreamOptions options;
  options.connections_per_nic = 2;
  options.warmup = SimDuration::FromMillis(20);
  options.measure = SimDuration::FromMillis(30);
  return options;
}

TEST(StreamPayload, TapSeesThePatternAtEachDataFramesStreamOffset) {
  Testbed bed(LossyStreamConfig());
  const Testbed::StreamOptions options = ShortStream();
  uint64_t data_frames = 0;
  uint64_t mismatches = 0;
  bed.AddLinkTap([&](std::span<const uint8_t> frame) {
    const auto view = ParseTcpFrame(frame);
    ASSERT_TRUE(view.has_value());
    if (view->payload_size == 0) {
      return;
    }
    size_t nic = 0;
    while (bed.client_ip(nic) != view->ip.src) {
      ++nic;
    }
    const uint32_t iss =
        bed.ClientConnectionConfig(nic, view->tcp.src_port, options.server_port).initial_seq;
    const uint32_t offset = view->tcp.seq - (iss + 1);
    const std::span<const uint8_t> payload(frame.data() + view->payload_offset,
                                           view->payload_size);
    const std::span<const uint8_t> want = SendStream::PatternView(offset, payload.size());
    ++data_frames;
    if (!std::equal(payload.begin(), payload.end(), want.begin())) {
      ++mismatches;
    }
  });
  const StreamResult result = bed.RunStream(options);
  EXPECT_GT(result.retransmits, 0u);
  EXPECT_GT(data_frames, result.data_packets);
  EXPECT_EQ(mismatches, 0u);
}

TEST(StreamPayload, ReadersChangeNoStreamResult) {
  enum class Reader { kNone, kTap, kTracer };
  const auto run = [](Reader reader) {
    Testbed bed(LossyStreamConfig());
    PacketTracer tracer(bed.loop(), 10);
    if (reader == Reader::kTap) {
      bed.AddLinkTap([](std::span<const uint8_t>) {});
    } else if (reader == Reader::kTracer) {
      bed.AttachTracer(tracer);
    }
    return bed.RunStream(ShortStream());
  };
  const StreamResult unread = run(Reader::kNone);
  EXPECT_GT(unread.data_packets, 0u);
  EXPECT_EQ(run(Reader::kTap), unread);
  EXPECT_EQ(run(Reader::kTracer), unread);
}

// What the senders wrote over a stream's measurement window.
struct WindowWrites {
  bool window_ran = false;
  uint64_t payload_bytes_written = 0;  // counted by the frame writer
  uint64_t tapped_data_frames = 0;     // counted by the tap, when there is one
  uint64_t tapped_payload_bytes = 0;
};

WindowWrites RunStreamWindow(bool tap) {
  Testbed bed(LossyStreamConfig());
  const Testbed::StreamOptions options = ShortStream();
  WindowWrites writes;
  bool in_window = false;
  uint64_t written_at_start = 0;
  // Marks at the window's edges; they touch no simulated state.
  bed.loop().ScheduleAt(SimTime() + options.warmup, [&] {
    in_window = true;
    written_at_start = thread_harness_counters.payload_bytes_written;
  });
  bed.loop().ScheduleAt(SimTime() + options.warmup + options.measure, [&] {
    in_window = false;
    writes.window_ran = true;
    writes.payload_bytes_written =
        thread_harness_counters.payload_bytes_written - written_at_start;
  });
  if (tap) {
    bed.AddLinkTap([&](std::span<const uint8_t> frame) {
      const auto view = ParseTcpFrame(frame);
      if (in_window && view.has_value() && view->payload_size > 0) {
        ++writes.tapped_data_frames;
        writes.tapped_payload_bytes += view->payload_size;
      }
    });
  }
  bed.RunStream(options);
  return writes;
}

TEST(HarnessCounters, StreamWithoutReadersWritesNoPayloadByte) {
  const WindowWrites writes = RunStreamWindow(/*tap=*/false);
  ASSERT_TRUE(writes.window_ran);
  EXPECT_EQ(writes.payload_bytes_written, 0u);
}

TEST(HarnessCounters, StreamWithATapWritesEveryDataFramesPayload) {
  const WindowWrites writes = RunStreamWindow(/*tap=*/true);
  ASSERT_TRUE(writes.window_ran);
  EXPECT_GT(writes.tapped_data_frames, 0u);
  EXPECT_EQ(writes.payload_bytes_written, kMssWithTimestamps * writes.tapped_data_frames);
  EXPECT_EQ(writes.tapped_payload_bytes, writes.payload_bytes_written);
}

// Frames that reached a receiver on the bed: the host's NICs and the remote nodes.
uint64_t FramesReceived(Testbed& bed) {
  uint64_t frames = 0;
  for (size_t i = 0; i < bed.num_nics(); ++i) {
    frames += bed.nic(i).stats().rx_frames + bed.remote(i).frames_received();
  }
  return frames;
}

// Runs the next 10 ms of a warm bed and expects each frame received in them to be
// parsed once and its IPv4 header checked once, every event run to be counted, and
// every frame buffer taken to come from a free list.
void ExpectOneParseAndCheckPerFrame(Testbed& bed) {
  const uint64_t received_before = FramesReceived(bed);
  const HarnessCounters before = thread_harness_counters;
  const uint64_t events = bed.loop().RunUntil(bed.loop().Now() + SimDuration::FromMillis(10));
  const uint64_t received = FramesReceived(bed) - received_before;
  const uint64_t parsed = thread_harness_counters.frames_parsed - before.frames_parsed;
  const uint64_t checks = thread_harness_counters.ipv4_header_checks - before.ipv4_header_checks;
  ASSERT_GT(received, 100u);
  EXPECT_EQ(parsed, received);
  EXPECT_EQ(checks, parsed);
  EXPECT_EQ(thread_harness_counters.events_run - before.events_run, events);
  EXPECT_GT(thread_harness_counters.frame_buffers_taken, before.frame_buffers_taken);
  EXPECT_EQ(thread_harness_counters.frame_buffers_made, before.frame_buffers_made);
}

TEST(HarnessCounters, EveryReceivedFrameIsParsedAndCheckedOnce) {
  Testbed::StreamOptions stream;
  stream.warmup = SimDuration::FromMillis(20);
  stream.measure = SimDuration::FromMillis(10);
  const auto stream_config = [](SystemType system, bool optimized) {
    TestbedConfig config;
    config.stack = optimized ? StackConfig::Optimized(system) : StackConfig::Baseline(system);
    config.stack.fill_tcp_checksums = false;
    return config;
  };
  {
    SCOPED_TRACE("UP optimized");
    Testbed bed(stream_config(SystemType::kNativeUp, true));
    ASSERT_GT(bed.RunStream(stream).throughput_mbps, 0);
    ExpectOneParseAndCheckPerFrame(bed);
  }
  {
    SCOPED_TRACE("hardware LRO");
    TestbedConfig config = stream_config(SystemType::kNativeUp, true);
    config.stack.hardware_lro = true;
    Testbed bed(config);
    ASSERT_GT(bed.RunStream(stream).throughput_mbps, 0);
    ExpectOneParseAndCheckPerFrame(bed);
  }
  {
    SCOPED_TRACE("4-core SMP with RSS, optimized");
    TestbedConfig config = stream_config(SystemType::kNativeSmp, true);
    config.smp.num_cores = 4;
    config.smp.rss.enabled = true;
    Testbed bed(config);
    Testbed::StreamOptions flows = stream;
    flows.connections_per_nic = 4;
    ASSERT_GT(bed.RunStream(flows).throughput_mbps, 0);
    ExpectOneParseAndCheckPerFrame(bed);
  }
  {
    SCOPED_TRACE("Xen optimized latency");
    TestbedConfig config = stream_config(SystemType::kXenGuest, true);
    config.num_nics = 1;
    Testbed bed(config);
    Testbed::LatencyOptions latency;
    latency.warmup = SimDuration::FromMillis(20);
    latency.measure = SimDuration::FromMillis(20);
    ASSERT_GT(bed.RunLatency(latency).transactions, 0u);
    ExpectOneParseAndCheckPerFrame(bed);
  }
  {
    SCOPED_TRACE("UP baseline");
    Testbed bed(stream_config(SystemType::kNativeUp, false));
    ASSERT_GT(bed.RunStream(stream).throughput_mbps, 0);
    // One more window to warm: a pulled frame gives its buffer back when its driver
    // polls, not when it arrives, so the free lists fill later.
    bed.loop().RunUntil(bed.loop().Now() + SimDuration::FromMillis(10));
    ExpectOneParseAndCheckPerFrame(bed);
  }
}

// A Testbed keeps the harness counts of its measurement window alone, and an identical
// bed on the same thread repeats them exactly, apart from frame_buffers_made, which
// depends on how warm the thread's free lists are.
TEST(HarnessCounters, TestbedKeepsTheMeasurementWindowsCounts) {
  struct Run {
    HarnessCounters window;
    HarnessCounters whole;  // the whole RunStream or RunLatency call
  };
  const auto stream = [] {
    Testbed bed(LossyStreamConfig());
    const HarnessCounters before = thread_harness_counters;
    EXPECT_GT(bed.RunStream(ShortStream()).data_packets, 0u);
    return Run{bed.window_harness_counters(), thread_harness_counters - before};
  };
  const auto latency = [] {
    TestbedConfig config;
    config.stack = StackConfig::Optimized(SystemType::kXenGuest);
    config.num_nics = 1;
    Testbed bed(config);
    Testbed::LatencyOptions options;
    options.warmup = SimDuration::FromMillis(20);
    options.measure = SimDuration::FromMillis(20);
    const HarnessCounters before = thread_harness_counters;
    EXPECT_GT(bed.RunLatency(options).transactions, 0u);
    return Run{bed.window_harness_counters(), thread_harness_counters - before};
  };
  for (const auto& run : {+stream, +latency}) {
    const Run first = run();
    const Run second = run();
    EXPECT_GT(first.window.frames_parsed, 0u);
    EXPECT_EQ(first.window.ipv4_header_checks, first.window.frames_parsed);
    EXPECT_GT(first.window.event_key_compares, 0u);
    EXPECT_LT(first.window.events_run, first.whole.events_run);  // the warm-up is not in it
    for (const HarnessCounterField& field : kHarnessCounterFields) {
      if (field.value != &HarnessCounters::frame_buffers_made) {
        EXPECT_EQ(second.window.*field.value, first.window.*field.value) << field.name;
      }
    }
    EXPECT_EQ(second.window.frame_buffers_made, 0u);
  }
}

// Heap work per data packet with the default windows. A NIC whose queues all poll or
// have their interrupts pending pulls its frames off the link without a wakeup each,
// a poll step (an interrupt's first included) runs in place while nothing else is due
// first, and a step's transmit batch is sent in place or by the next step's event, so
// UP optimized reads 0.777 events and 9.06 key compares, and the 4-core baseline 1.604
// events and 18.48 compares.
TEST(HarnessCounters, PolledNicsKeepTheHeapWorkPerDataPacketLow) {
  const auto per_packet = [](const TestbedConfig& config, size_t connections_per_nic) {
    Testbed bed(config);
    Testbed::StreamOptions options;
    options.connections_per_nic = connections_per_nic;
    const StreamResult result = bed.RunStream(options);
    const HarnessCounters& window = bed.window_harness_counters();
    const auto packets = static_cast<double>(result.data_packets);
    EXPECT_GT(window.frames_pulled, 0u);
    return std::make_pair(static_cast<double>(window.events_run) / packets,
                          static_cast<double>(window.event_key_compares) / packets);
  };
  TestbedConfig up;
  up.stack = StackConfig::Optimized(SystemType::kNativeUp);
  up.stack.fill_tcp_checksums = false;
  const auto [up_events, up_compares] = per_packet(up, 1);
  EXPECT_LE(up_events, 0.80);
  // The compares include those of each step's check for an earlier pending event.
  EXPECT_LE(up_compares, 12.5);

  TestbedConfig smp;
  smp.stack = StackConfig::Baseline(SystemType::kNativeSmp);
  smp.stack.fill_tcp_checksums = false;
  smp.smp.num_cores = 4;
  smp.link.bits_per_second = 10'000'000'000;
  LinkConfig lossy = smp.link;
  lossy.drop_probability = 0.001;
  smp.client_to_server_link = lossy;
  const auto [smp_events, smp_compares] = per_packet(smp, 4);
  EXPECT_LE(smp_events, 1.65);
  EXPECT_LE(smp_compares, 21.5);
}

TEST(HarnessCounters, OutOfOrderSegmentsTakeNoFrameBuffer) {
  // One loss in a window: 40 MSS segments arrive past a one-segment hole, then the hole
  // fills and the run pops. The queue keeps the frames the segments arrived in.
  constexpr size_t kMss = 1448;
  constexpr size_t kSegments = 40;
  const std::vector<uint8_t> frame = MakeFrame(FrameOptions{}, kMss);
  PacketPool pool;
  ReassemblyQueue queue;
  const uint64_t taken_before = thread_harness_counters.frame_buffers_taken;
  for (size_t i = 1; i <= kSegments; ++i) {
    queue.Insert(1000 + i * kMss, pool.Allocate(frame));
  }
  std::vector<uint8_t> run;
  EXPECT_EQ(queue.PopInOrder(1000 + kMss, run), kSegments * kMss);
  EXPECT_EQ(thread_harness_counters.frame_buffers_taken - taken_before, 0u);
  EXPECT_EQ(pool.stats().live, 0u);
}

// Selection finds exactly the entries a full sort puts at the percentile ranks, ties
// and every small size included.
TEST(TestbedTopology, RttPercentilesMatchTheSortedSamples) {
  Rng rng(17);
  for (size_t size = 1; size <= 300; ++size) {
    std::vector<double> samples(size);
    for (double& sample : samples) {
      sample = static_cast<double>(rng.NextBelow(size / 3 + 2)) + 0.5;  // many ties
    }
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    LatencyResult result;
    SetRttPercentiles(samples, result);
    EXPECT_EQ(result.p50_us, sorted[size / 2]) << size;
    EXPECT_EQ(result.p99_us, sorted[size * 99 / 100]) << size;
    EXPECT_EQ(result.max_us, sorted.back()) << size;
  }
  LatencyResult none;
  std::vector<double> empty;
  SetRttPercentiles(empty, none);
  EXPECT_EQ(none.max_us, 0.0);
}

TEST(TestbedTopology, LatencyPercentilesAreOrderedAndPlausible) {
  TestbedConfig config;
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 1;
  Testbed bed(config);
  Testbed::LatencyOptions options;
  options.warmup = SimDuration::FromMillis(100);
  options.measure = SimDuration::FromMillis(400);
  const LatencyResult r = bed.RunLatency(options);
  EXPECT_GT(r.transactions, 100u);
  EXPECT_GT(r.p50_us, 50.0);   // at least the two-way propagation delay
  EXPECT_LE(r.p50_us, r.p99_us);
  EXPECT_LE(r.p99_us, r.max_us);
  // Rate and median must be consistent (one transaction outstanding).
  EXPECT_NEAR(r.p50_us, 1e6 / r.transactions_per_sec, 20.0);
}

// ---------------------------------------------------------------------------
// Report helpers
// ---------------------------------------------------------------------------

TEST(Report, CategorySharesSumToHundred) {
  StreamResult r;
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    r.cycles_per_packet[c] = 100;
    r.total_cycles_per_packet += 100;
  }
  std::vector<CostCategory> all;
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    all.push_back(static_cast<CostCategory>(c));
  }
  EXPECT_NEAR(CategoryShare(r, all), 100.0, 1e-9);
  const CostCategory one[] = {CostCategory::kRx};
  EXPECT_NEAR(CategoryShare(r, one), 100.0 / kCostCategoryCount, 1e-9);
}

TEST(Report, ShareOfEmptyResultIsZero) {
  StreamResult r;
  const CostCategory one[] = {CostCategory::kRx};
  EXPECT_EQ(CategoryShare(r, one), 0.0);
}

TEST(Report, FigureCategoryOrdersCoverDistinctCategories) {
  const auto native = NativeFigureCategories();
  const auto xen = XenFigureCategories();
  EXPECT_EQ(xen.size(), kCostCategoryCount);  // Xen order shows every bucket
  for (size_t i = 0; i < native.size(); ++i) {
    for (size_t j = i + 1; j < native.size(); ++j) {
      EXPECT_NE(native[i], native[j]);
    }
  }
  for (size_t i = 0; i < xen.size(); ++i) {
    for (size_t j = i + 1; j < xen.size(); ++j) {
      EXPECT_NE(xen[i], xen[j]);
    }
  }
}

}  // namespace
}  // namespace tcprx
