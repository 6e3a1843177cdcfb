// Micro-benchmarks (google-benchmark) of the hot-path primitives.
//
// These measure the *simulator's* real cost of the operations the paper's design
// keeps cheap: frame parsing (the aggregator's early demux), aggregation push/flush,
// template-ACK expansion, the incremental checksum updates that make header rewrites
// O(1), and the full checksum they avoid; plus the event loop that runs them all.
// Useful for keeping the testbed fast and for sanity-checking that the engineered fast
// paths really are fast.

#include <benchmark/benchmark.h>

#include <span>
#include <utility>
#include <vector>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/core/aggregator.h"
#include "src/core/template_ack.h"
#include "src/util/checksum.h"
#include "src/util/event_loop.h"
#include "src/cpu/cache_model.h"
#include "src/sim/trace.h"
#include "src/tcp/reassembly.h"
#include "src/tcp/sack.h"
#include "src/tcp/send_stream.h"
#include "src/util/rng.h"
#include "src/wire/frame.h"
#include "src/wire/frame_buffer.h"

namespace tcprx {
namespace {

std::vector<uint8_t> MakeDataFrame(uint32_t seq, uint32_t ack, size_t payload_size) {
  TcpFrameSpec spec;
  spec.src_mac = MacAddress::FromHostId(1);
  spec.dst_mac = MacAddress::FromHostId(2);
  spec.src_ip = Ipv4Address::FromOctets(10, 0, 0, 2);
  spec.dst_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  spec.tcp.src_port = 10000;
  spec.tcp.dst_port = 5001;
  spec.tcp.seq = seq;
  spec.tcp.ack = ack;
  spec.tcp.flags = kTcpAck;
  spec.tcp.window = 65535;
  uint8_t ts[kTcpTimestampOptionSize];
  WriteTimestampOption(TcpTimestampOption{1000, 2000}, ts);
  spec.tcp.raw_options.assign(ts, ts + kTcpTimestampOptionSize);
  static std::vector<uint8_t> payload(kMssWithTimestamps, 0xab);
  spec.payload = std::span<const uint8_t>(payload).first(payload_size);
  return BuildTcpFrame(spec);
}

// One frame parsed into a reused view, as the packet pool parses into a recycled
// Packet. The argument is the payload size: an MSS data frame, and the 66-byte
// timestamped ACK that answers it.
void BM_ParseTcpFrame(benchmark::State& state) {
  const auto frame = MakeDataFrame(1, 1, static_cast<size_t>(state.range(0)));
  TcpFrameView view;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseTcpFrame(frame, view));
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_ParseTcpFrame)->Arg(kMssWithTimestamps)->Arg(0);

void BM_InternetChecksumMtu(benchmark::State& state) {
  const auto frame = MakeDataFrame(1, 1, kMssWithTimestamps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InternetChecksum(frame));
  }
}
BENCHMARK(BM_InternetChecksumMtu);

void BM_IncrementalChecksumUpdate(benchmark::State& state) {
  uint16_t csum = 0x1234;
  uint32_t ack = 1;
  for (auto _ : state) {
    csum = ChecksumUpdateDword(csum, ack, ack + 1448);
    ack += 1448;
    benchmark::DoNotOptimize(csum);
  }
}
BENCHMARK(BM_IncrementalChecksumUpdate);

void BM_AggregatorPushChain(benchmark::State& state) {
  const size_t limit = static_cast<size_t>(state.range(0));
  PacketPool pool;
  uint64_t delivered = 0;
  Aggregator aggregator(limit, [&](SkBuffPtr skb) {
    delivered += skb->SegmentCount();
  });
  uint32_t seq = 1;
  for (auto _ : state) {
    auto frame = MakeDataFrame(seq, 99, kMssWithTimestamps);
    PacketPtr p = pool.AllocateMoved(std::move(frame));
    p->nic_checksum_verified = true;
    aggregator.Push(std::move(p));
    seq += kMssWithTimestamps;
  }
  aggregator.FlushAll();
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
}
BENCHMARK(BM_AggregatorPushChain)->Arg(1)->Arg(4)->Arg(20);

void BM_TemplateAckExpand(benchmark::State& state) {
  const size_t n_acks = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> extra_acks;
  for (size_t i = 1; i < n_acks; ++i) {
    extra_acks.push_back(100000 + static_cast<uint32_t>(i) * 2896);
  }
  TcpOutputItem tmpl;
  tmpl.frame = MakeDataFrame(1, 100000, 0);
  tmpl.extra_acks = extra_acks;
  for (auto _ : state) {
    // The expander consumes its item, so each pass starts from a copy of the template.
    ExpandTemplateAck(TcpOutputItem(tmpl),
                      [](std::vector<uint8_t>&& frame) { benchmark::DoNotOptimize(frame); });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n_acks));
}
BENCHMARK(BM_TemplateAckExpand)->Arg(2)->Arg(10);

void BM_RewriteAckNumber(benchmark::State& state) {
  auto frame = MakeDataFrame(1, 100, 0);
  uint32_t ack = 100;
  for (auto _ : state) {
    RewriteAckNumber(frame, kEthernetHeaderSize + kIpv4MinHeaderSize, ack);
    ack += 2896;
  }
}
BENCHMARK(BM_RewriteAckNumber);

void BM_ReassemblyInsertPop(benchmark::State& state) {
  // Worst-ish case: segments inserted in reverse order, then drained. Each segment
  // arrives as a frame from a warm pool, which the queue keeps until the pop.
  const size_t segments = static_cast<size_t>(state.range(0));
  const auto frame = MakeDataFrame(1, 99, 1448);
  PacketPool pool;
  for (auto _ : state) {
    ReassemblyQueue q;
    for (size_t i = segments; i-- > 0;) {
      q.Insert(1000 + i * 1448, pool.AllocateMoved(CopyFrame(frame)));
    }
    benchmark::DoNotOptimize(q.PopInOrder(1000));
    q.ReleaseRun();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(segments));
}
BENCHMARK(BM_ReassemblyInsertPop)->Arg(8)->Arg(64);

void BM_SackScoreboardAdd(benchmark::State& state) {
  for (auto _ : state) {
    SackScoreboard board;
    // Alternating holes: every other segment sacked.
    for (uint64_t i = 0; i < 32; ++i) {
      board.Add(i * 2 * 1448, (i * 2 + 1) * 1448);
    }
    benchmark::DoNotOptimize(board.NextUnsackedFrom(0));
    benchmark::DoNotOptimize(board.SackedBytes());
  }
}
BENCHMARK(BM_SackScoreboardAdd);

void BM_CacheModelCopy(benchmark::State& state) {
  const CacheModel model(PrefetchMode::kFull);
  size_t bytes = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.CopyCycles(bytes));
    bytes = bytes % 9000 + 7;
  }
}
BENCHMARK(BM_CacheModelCopy);

void BM_FormatTcpFrame(benchmark::State& state) {
  const auto frame = MakeDataFrame(1, 2, 1448);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FormatTcpFrame(frame));
  }
}
BENCHMARK(BM_FormatTcpFrame);

// The remote sender's per-byte work: one MSS of synthetic payload, by reference.
void BM_SendStreamView(benchmark::State& state) {
  SendStream stream;
  stream.SetSynthetic(UINT64_MAX / 2);
  uint64_t offset = 0;
  for (auto _ : state) {
    const std::span<const uint8_t> payload = stream.View(offset, kMssWithTimestamps);
    benchmark::DoNotOptimize(payload.data());
    offset += kMssWithTimestamps;
  }
}
BENCHMARK(BM_SendStreamView);

// The per-segment work of TcpConnection::BuildSegment, written from the connection's
// header template into a recycled buffer, its TCP checksum left to the (modelled) NIC;
// the buffer goes back to the free list, as the packet pool gives back each frame it
// takes. Arg 0 is the remote sender's established data segment on a run that nothing
// reads the payload of: timestamps only, from the header image, with a length-only MSS
// payload. Arg 1 is a pure ACK carrying three SACK blocks, whose option bytes are put
// together and copied explicitly.
void BM_BuildSegment(benchmark::State& state) {
  const bool sack = state.range(0) == 1;
  const TcpFrameTemplate tmpl = MakeTcpFrameTemplate(
      MacAddress::FromHostId(1), MacAddress::FromHostId(2), Ipv4Address::FromOctets(10, 0, 0, 2),
      Ipv4Address::FromOctets(10, 0, 0, 1), 10000, 5001);
  uint32_t seq = 0;
  uint16_t ip_id = 0;
  for (auto _ : state) {
    std::vector<uint8_t> frame;
    if (sack) {
      TcpOptionBytes options;
      WriteTimestampOption(TcpTimestampOption{seq, 0}, options.Append(kTcpTimestampOptionSize));
      const SackBlock blocks[] = {{seq + 2896, seq + 4344}, {seq + 5792, seq + 7240},
                                  {seq + 8688, seq + 10136}};
      AppendSackOption(blocks, options);
      frame = WriteTcpFrame(tmpl, ip_id++, {1, seq, kTcpAck, 65535}, options, {}, false);
    } else {
      frame = WriteTcpFrame(tmpl, ip_id++, {seq, 1, kTcpAck | kTcpPsh, 65535},
                            TcpOptionSource::Established({seq, 0}),
                            TcpPayload::LengthOnly(kMssWithTimestamps), false);
    }
    benchmark::DoNotOptimize(frame.data());
    RecycleFrameBuffer(std::move(frame));
    seq += kMssWithTimestamps;
  }
}
BENCHMARK(BM_BuildSegment)->Arg(0)->Arg(1);

// The event loop under a steady population of N pending events: each event that runs
// queues its successor a pseudo-random time later, as link, NIC and CPU events do. The
// churn object is itself the target of all N, as the hot-path sources are; the boxed
// variant queues each as a std::function, as cold callers do. Items are events
// executed. `far_future` more events wait beyond any time the benchmark reaches, as
// armed RTO and delayed-ACK wakeups wait beside the per-packet events.
class EventChurn final : public EventLoop::Target {
 public:
  EventChurn(int64_t pending, bool boxed, int64_t far_future) : boxed_(boxed) {
    for (int64_t i = 0; i < far_future; ++i) {
      loop_.ScheduleAt(SimTime::FromSeconds(1'000'000), *this);
    }
    for (int64_t i = 0; i < pending; ++i) {
      Next();
    }
  }
  EventLoop& loop() { return loop_; }

 private:
  void Fire(EventLoop::Slot /*slot*/) override { Next(); }
  void Next() {
    const SimTime when = loop_.Now() + SimDuration::FromNanos(1 + rng_.NextBelow(20'000));
    if (boxed_) {
      loop_.ScheduleAt(when, [this] { Next(); });
    } else {
      loop_.ScheduleAt(when, *this);
    }
  }

  EventLoop loop_;
  Rng rng_{7};
  bool boxed_;
};

void RunEventChurn(benchmark::State& state, int64_t pending, bool boxed, int64_t far_future) {
  EventChurn churn(pending, boxed, far_future);
  EventLoop& loop = churn.loop();
  uint64_t events = 0;
  for (auto _ : state) {
    events += loop.RunUntil(loop.Now() + SimDuration::FromMicros(10));
  }
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(static_cast<int64_t>(events));
}

void BM_EventLoopChurn(benchmark::State& state) {
  RunEventChurn(state, state.range(0), /*boxed=*/false, /*far_future=*/0);
}
BENCHMARK(BM_EventLoopChurn)->Arg(4)->Arg(32)->Arg(256);

void BM_EventLoopChurnBoxed(benchmark::State& state) {
  RunEventChurn(state, state.range(0), /*boxed=*/true, /*far_future=*/0);
}
BENCHMARK(BM_EventLoopChurnBoxed)->Arg(4)->Arg(32)->Arg(256);

// 4 live events churning beside N far-future ones: the shape of a many-flow run, whose
// heap is mostly timer wakeups. Each event that queues its successor replaces its own
// key at the root, so the sift stops near the top whatever N is.
void BM_EventLoopChurnFarFuture(benchmark::State& state) {
  RunEventChurn(state, /*pending=*/4, /*boxed=*/false, /*far_future=*/state.range(0));
}
BENCHMARK(BM_EventLoopChurnFarFuture)->Arg(200)->Arg(1600);

}  // namespace
}  // namespace tcprx

BENCHMARK_MAIN();
