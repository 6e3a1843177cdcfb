// Latency demo: what Receive Aggregation does — and does not — cost a
// latency-sensitive request/response workload.
//
// Two scenarios on the same server:
//   quiet : the 1-byte ping-pong is the only traffic. This is the paper's Table 1
//           experiment: aggregation is work-conserving (a lone packet is flushed the
//           moment the stack would idle), so the transaction rate is unchanged.
//   loaded: NICs 1..3 carry bulk streams at the same time. Now the stack is NOT idle
//           when the request lands, so the request shares the batch with bulk frames
//           and waits (bounded by one interrupt-moderation batch) — an honest cost of
//           batching that the paper's quiet-server Table 1 does not exercise.

#include <cstdio>
#include <memory>
#include <vector>

#include "src/sim/testbed.h"

using namespace tcprx;

namespace {

struct RunResult {
  double transactions_per_sec;
  double bulk_mbps;
};

RunResult Run(bool optimized, bool with_bulk_load) {
  TestbedConfig config;
  config.stack = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                           : StackConfig::Baseline(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 4;
  Testbed bed(config);

  // Echo server for the latency connection.
  bed.stack().Listen(7, [&](TcpConnection& conn) {
    conn.set_on_data([&conn](std::span<const uint8_t> data) {
      conn.Send(std::vector<uint8_t>(data.size(), 0x42));
    });
  });
  // Sink for the bulk streams.
  bed.stack().Listen(5001, [](TcpConnection&) {});

  // Bulk senders on NICs 1..3.
  for (size_t nic = 1; with_bulk_load && nic < bed.num_nics(); ++nic) {
    TcpConnection* bulk = bed.remote(nic).CreateConnection(
        bed.ClientConnectionConfig(nic, 10000, 5001));
    bulk->Connect();
    bulk->SendSynthetic(UINT64_MAX / 2);
  }

  // Ping-pong client on NIC 0, one transaction outstanding.
  TcpConnection* client =
      bed.remote(0).CreateConnection(bed.ClientConnectionConfig(0, 20001, 7));
  auto transactions = std::make_shared<uint64_t>(0);
  client->set_on_data([client, transactions](std::span<const uint8_t>) {
    ++*transactions;
    client->Send(std::vector<uint8_t>(1, 0x21));
  });
  client->set_on_established([client] { client->Send(std::vector<uint8_t>(1, 0x21)); });
  client->Connect();

  const SimTime warmup = SimTime::FromMillis(200);
  const SimTime end = SimTime::FromMillis(1200);
  bed.loop().RunUntil(warmup);
  const uint64_t tx_before = *transactions;
  const uint64_t bytes_before = bed.stack().account().counters().payload_bytes;
  bed.loop().RunUntil(end);

  RunResult result{};
  const double seconds = (end - warmup).ToSecondsF();
  result.transactions_per_sec = static_cast<double>(*transactions - tx_before) / seconds;
  result.bulk_mbps = static_cast<double>(bed.stack().account().counters().payload_bytes -
                                         bytes_before) *
                     8.0 / seconds / 1e6;
  return result;
}

}  // namespace

int main() {
  std::printf("1-byte echo on NIC 0 of a 4-NIC receive server.\n\n");

  const RunResult quiet_base = Run(false, false);
  const RunResult quiet_opt = Run(true, false);
  std::printf("quiet server (the paper's Table 1 scenario):\n");
  std::printf("  baseline : %7.0f transactions/s\n", quiet_base.transactions_per_sec);
  std::printf("  optimized: %7.0f transactions/s  (%+.2f%%)\n",
              quiet_opt.transactions_per_sec,
              (quiet_opt.transactions_per_sec / quiet_base.transactions_per_sec - 1) * 100);
  std::printf("  -> work-conserving flush: a lone request is never delayed.\n\n");

  const RunResult load_base = Run(false, true);
  const RunResult load_opt = Run(true, true);
  std::printf("loaded server (bulk streams on NICs 1-3):\n");
  std::printf("  baseline : %7.0f transactions/s  (bulk sink: %5.0f Mb/s)\n",
              load_base.transactions_per_sec, load_base.bulk_mbps);
  std::printf("  optimized: %7.0f transactions/s  (bulk sink: %5.0f Mb/s, %+.1f%%)\n",
              load_opt.transactions_per_sec, load_opt.bulk_mbps,
              (load_opt.transactions_per_sec / load_base.transactions_per_sec - 1) * 100);
  std::printf("  -> under concurrent load a request shares the receive batch with bulk\n");
  std::printf("     frames; the extra wait is bounded by one interrupt-moderation batch.\n");
  return 0;
}
