// Micro-benchmarks (google-benchmark) of the hot-path primitives.
//
// These measure the *simulator's* real cost of the operations the paper's design
// keeps cheap: frame parsing (the aggregator's early demux), aggregation push/flush,
// template-ACK expansion, the incremental checksum updates that make header rewrites
// O(1), and the full checksum they avoid. Useful for keeping the testbed fast and for
// sanity-checking that the engineered fast paths really are fast.

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "src/buffer/packet.h"
#include "src/buffer/skbuff.h"
#include "src/core/aggregator.h"
#include "src/core/template_ack.h"
#include "src/util/checksum.h"
#include "src/cpu/cache_model.h"
#include "src/sim/trace.h"
#include "src/tcp/reassembly.h"
#include "src/tcp/sack.h"
#include "src/tcp/send_stream.h"
#include "src/util/rng.h"
#include "src/wire/frame.h"

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

void BM_ParseTcpFrame(benchmark::State& state) {
  const auto frame = MakeDataFrame(1, 1, kMssWithTimestamps);
  for (auto _ : state) {
    auto view = ParseTcpFrame(frame);
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_ParseTcpFrame);

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
  AggregatorConfig config;
  config.aggregation_limit = limit;
  uint64_t delivered = 0;
  Aggregator aggregator(config, [&](SkBuffPtr skb) {
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
  TcpOutputItem tmpl;
  tmpl.frame = MakeDataFrame(1, 100000, 0);
  for (size_t i = 1; i < n_acks; ++i) {
    tmpl.extra_acks.push_back(100000 + static_cast<uint32_t>(i) * 2896);
  }
  for (auto _ : state) {
    // The expander consumes its item, so each pass starts from a copy of the template.
    ExpandTemplateAck(tmpl, [](std::vector<uint8_t> frame) { benchmark::DoNotOptimize(frame); });
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
  // Worst-ish case: segments inserted in reverse order, then drained.
  const size_t segments = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    ReassemblyQueue q;
    for (size_t i = segments; i-- > 0;) {
      q.Insert(1000 + i * 1448, std::vector<uint8_t>(1448, 0xaa));
    }
    std::vector<uint8_t> out;
    benchmark::DoNotOptimize(q.PopInOrder(1000, out));
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
  const CacheModel model(CacheParams{}, PrefetchMode::kFull);
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

// The remote sender's per-frame work: a timestamped MSS data segment built from the
// synthetic stream, its TCP checksum left to the (modelled) NIC.
void BM_BuildDataSegment(benchmark::State& state) {
  SendStream stream;
  stream.SetSynthetic(UINT64_MAX / 2);
  TcpFrameSpec spec;
  spec.src_mac = MacAddress::FromHostId(1);
  spec.dst_mac = MacAddress::FromHostId(2);
  spec.src_ip = Ipv4Address::FromOctets(10, 0, 0, 2);
  spec.dst_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  spec.fill_tcp_checksum = false;
  spec.tcp.src_port = 10000;
  spec.tcp.dst_port = 5001;
  spec.tcp.flags = kTcpAck | kTcpPsh;
  spec.tcp.window = 65535;
  uint64_t offset = 0;
  for (auto _ : state) {
    spec.tcp.seq = static_cast<uint32_t>(offset);
    uint8_t ts[kTcpTimestampOptionSize];
    WriteTimestampOption(TcpTimestampOption{static_cast<uint32_t>(offset), 0}, ts);
    spec.tcp.raw_options.assign(ts, ts + kTcpTimestampOptionSize);
    spec.payload = stream.View(offset, kMssWithTimestamps);
    benchmark::DoNotOptimize(BuildTcpFrame(spec));
    offset += kMssWithTimestamps;
  }
}
BENCHMARK(BM_BuildDataSegment);

}  // namespace
}  // namespace tcprx

BENCHMARK_MAIN();
