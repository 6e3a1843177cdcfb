// Tests for the RSS half of the multi-core receive subsystem: Toeplitz hashing, the
// indirection table, and end-to-end flow affinity through the multi-queue NIC and the
// per-core shards.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/sim/testbed.h"
#include "src/nic/rss.h"
#include "src/util/rng.h"

namespace tcprx {
namespace {

FlowKey MakeFlow(uint8_t host, uint16_t src_port) {
  FlowKey key;
  key.src_ip = Ipv4Address::FromOctets(10, 0, host, 2);
  key.dst_ip = Ipv4Address::FromOctets(10, 0, host, 1);
  key.src_port = src_port;
  key.dst_port = 5001;
  return key;
}

TEST(RssHasher, HashIsDeterministic) {
  const RssHasher a(RssConfig{}, 4);
  const RssHasher b(RssConfig{}, 4);
  for (uint16_t port = 1000; port < 1100; ++port) {
    const FlowKey key = MakeFlow(1, port);
    EXPECT_EQ(a.Hash(key), b.Hash(key));
    EXPECT_EQ(a.QueueFor(key), b.QueueFor(key));
  }
}

TEST(RssHasher, DifferentKeySeedChangesTheMapping) {
  RssConfig other;
  other.key_seed = 0xdeadbeef;
  const RssHasher a(RssConfig{}, 8);
  const RssHasher b(other, 8);
  size_t differing = 0;
  for (uint16_t port = 1000; port < 1256; ++port) {
    if (a.Hash(MakeFlow(1, port)) != b.Hash(MakeFlow(1, port))) {
      ++differing;
    }
  }
  // A different secret key must produce an essentially unrelated hash function.
  EXPECT_GT(differing, 250u);
}

TEST(RssHasher, HashDependsOnEveryTupleField) {
  const RssHasher h(RssConfig{}, 4);
  const FlowKey base = MakeFlow(1, 1000);
  FlowKey k = base;
  k.src_ip = Ipv4Address::FromOctets(10, 0, 2, 2);
  EXPECT_NE(h.Hash(base), h.Hash(k));
  k = base;
  k.dst_ip = Ipv4Address::FromOctets(10, 0, 2, 1);
  EXPECT_NE(h.Hash(base), h.Hash(k));
  k = base;
  k.src_port = 1001;
  EXPECT_NE(h.Hash(base), h.Hash(k));
  k = base;
  k.dst_port = 5002;
  EXPECT_NE(h.Hash(base), h.Hash(k));
}

TEST(RssHasher, IndirectionTableStripesAllQueues) {
  for (size_t queues : {2u, 3u, 4u, 8u}) {
    const RssHasher h(RssConfig{}, queues);
    std::set<uint8_t> seen(h.indirection_table().begin(), h.indirection_table().end());
    EXPECT_EQ(seen.size(), queues);
    for (const uint8_t q : h.indirection_table()) {
      EXPECT_LT(q, queues);
    }
  }
}

TEST(RssHasher, DistributionIsRoughlyUniform) {
  // 1024 distinct flows over 4 queues: each queue should get a fair share. The bound
  // is loose (half to double the ideal 256) — this guards against degenerate hashing,
  // not statistical perfection.
  const RssHasher h(RssConfig{}, 4);
  std::map<size_t, size_t> per_queue;
  for (uint16_t port = 0; port < 1024; ++port) {
    ++per_queue[h.QueueFor(MakeFlow(static_cast<uint8_t>(port % 5), port))];
  }
  ASSERT_EQ(per_queue.size(), 4u);
  for (const auto& [queue, count] : per_queue) {
    EXPECT_GT(count, 128u) << "queue " << queue;
    EXPECT_LT(count, 512u) << "queue " << queue;
  }
}

// The bitwise Toeplitz loop the nibble tables replaced: for every set input bit, XOR
// in the 32-bit key window starting at that bit, sliding the window one key bit per
// input bit.
uint32_t ReferenceToeplitz(const RssKey& key, const FlowKey& flow) {
  const uint8_t input[12] = {
      static_cast<uint8_t>(flow.src_ip.value >> 24), static_cast<uint8_t>(flow.src_ip.value >> 16),
      static_cast<uint8_t>(flow.src_ip.value >> 8),  static_cast<uint8_t>(flow.src_ip.value),
      static_cast<uint8_t>(flow.dst_ip.value >> 24), static_cast<uint8_t>(flow.dst_ip.value >> 16),
      static_cast<uint8_t>(flow.dst_ip.value >> 8),  static_cast<uint8_t>(flow.dst_ip.value),
      static_cast<uint8_t>(flow.src_port >> 8),      static_cast<uint8_t>(flow.src_port),
      static_cast<uint8_t>(flow.dst_port >> 8),      static_cast<uint8_t>(flow.dst_port)};
  uint32_t result = 0;
  uint32_t window = (static_cast<uint32_t>(key[0]) << 24) | (static_cast<uint32_t>(key[1]) << 16) |
                    (static_cast<uint32_t>(key[2]) << 8) | key[3];
  size_t next_key_byte = 4;
  for (const uint8_t byte : input) {
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1) {
        result ^= window;
      }
      window = (window << 1) | ((key[next_key_byte] >> bit) & 1);
    }
    ++next_key_byte;
  }
  return result;
}

TEST(RssHasher, TablesMatchTheBitwiseToeplitzLoop) {
  Rng rng(20);
  for (int trial = 0; trial < 64; ++trial) {
    RssConfig config;
    config.key_seed = static_cast<uint32_t>(rng.Next());
    const size_t queues = 1 + rng.NextBelow(16);
    const RssHasher h(config, queues);
    const RssKey key = RssSecretKey(config);
    const std::vector<uint8_t>& table = h.indirection_table();
    for (int i = 0; i < 256; ++i) {
      FlowKey flow;
      flow.src_ip.value = static_cast<uint32_t>(rng.Next());
      flow.dst_ip.value = static_cast<uint32_t>(rng.Next());
      flow.src_port = static_cast<uint16_t>(rng.Next());
      flow.dst_port = static_cast<uint16_t>(rng.Next());
      const uint32_t expected = ReferenceToeplitz(key, flow);
      ASSERT_EQ(h.Hash(flow), expected) << "key seed " << config.key_seed << " flow " << i;
      ASSERT_EQ(h.QueueFor(flow), table[expected & (table.size() - 1)]);
    }
  }
}

TEST(RssHasher, SingleQueueAlwaysZero) {
  const RssHasher h(RssConfig{}, 1);
  for (uint16_t port = 1000; port < 1032; ++port) {
    EXPECT_EQ(h.QueueFor(MakeFlow(1, port)), 0u);
  }
}

// ---------------------------------------------------------------------------
// End-to-end flow affinity through the testbed
// ---------------------------------------------------------------------------

TEST(RssEndToEnd, EveryFlowStaysOnOneQueueAndCore) {
  TestbedConfig config;
  config.stack = StackConfig::Baseline(SystemType::kNativeSmp);
  config.stack.fill_tcp_checksums = false;
  config.smp.num_cores = 4;
  Testbed bed(config);

  Testbed::StreamOptions options;
  options.connections_per_nic = 8;
  options.warmup = SimDuration::FromMillis(50);
  options.measure = SimDuration::FromMillis(100);
  const StreamResult result = bed.RunStream(options);

  // Hardware steering: nothing ever takes the software redirect path.
  EXPECT_GT(result.throughput_mbps, 0);
  EXPECT_EQ(result.misdirected_packets, 0u);
  EXPECT_EQ(result.backlog_drops, 0u);

  // All queues of every NIC saw traffic (40 flows over 4 queues).
  for (size_t n = 0; n < bed.num_nics(); ++n) {
    for (size_t q = 0; q < bed.nic(n).num_rx_queues(); ++q) {
      EXPECT_GT(bed.nic(n).rx_frames_on_queue(q), 0u) << "nic " << n << " queue " << q;
    }
  }

  // Flow affinity: each established server-side connection lives on exactly one
  // shard, and every shard's connection set is disjoint (a flow that bounced between
  // cores would appear on several shards).
  std::set<uint64_t> seen;
  size_t total = 0;
  for (size_t c = 0; c < bed.num_cores(); ++c) {
    bed.stack_shard(c).ForEachConnection([&](TcpConnection& conn) {
      ++total;
      const uint64_t id = (static_cast<uint64_t>(conn.config().remote_port) << 32) |
                          conn.config().remote_ip.value;
      EXPECT_TRUE(seen.insert(id).second) << "flow on multiple shards";
    });
  }
  EXPECT_EQ(total, 40u);
  EXPECT_EQ(seen.size(), total);
}

TEST(RssEndToEnd, RoundRobinSprayWhenDisabled) {
  // RSS off: the NIC sprays per-packet, so the software director must redirect most
  // frames of most flows — and TCP must still make progress (recovery handles the
  // cross-core reordering the spray introduces).
  TestbedConfig config;
  config.stack = StackConfig::Baseline(SystemType::kNativeSmp);
  config.stack.fill_tcp_checksums = false;
  config.smp.num_cores = 4;
  config.smp.rss.enabled = false;
  Testbed bed(config);

  Testbed::StreamOptions options;
  options.connections_per_nic = 2;
  options.warmup = SimDuration::FromMillis(50);
  options.measure = SimDuration::FromMillis(100);
  const StreamResult result = bed.RunStream(options);

  EXPECT_GT(result.throughput_mbps, 0);
  EXPECT_GT(result.misdirected_packets, 0u);
  EXPECT_EQ(result.backlog_drops, 0u);
}

}  // namespace
}  // namespace tcprx
