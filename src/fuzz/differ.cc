#include "src/fuzz/differ.h"

#include <cstdio>
#include <memory>
#include <span>
#include <utility>

#include "src/sim/pcap.h"
#include "src/sim/testbed.h"
#include "src/stack/network_stack.h"
#include "src/tcp/send_stream.h"
#include "src/util/rng.h"
#include "src/wire/frame.h"

namespace tcprx {
namespace fuzz {
namespace {

constexpr uint16_t kServerPort = 5001;
constexpr uint16_t kClientPortBase = Testbed::kFirstClientPort;
// Every flow's first data byte, stream offset 0, has this sequence number.
constexpr uint32_t kFirstDataSeq = 1000;

Ipv4Address ClientIp() { return Ipv4Address::FromOctets(10, 0, 0, 2); }
Ipv4Address ServerIp() { return Ipv4Address::FromOctets(10, 0, 0, 1); }

// One frame of the direct-drive schedule, after fault application.
struct WireFrame {
  size_t flow = 0;
  uint32_t seq = 0;
  uint32_t payload_len = 0;
  bool csum_ok = true;  // false models a NIC that flagged the frame as corrupt
  std::vector<uint8_t> bytes;
};

std::vector<uint8_t> BuildClientFrame(size_t flow, uint32_t seq, uint32_t ack,
                                      uint8_t flags, uint32_t payload_len,
                                      uint32_t ts_value) {
  TcpFrameSpec spec;
  spec.src_mac = MacAddress::FromHostId(2);
  spec.dst_mac = MacAddress::FromHostId(1);
  spec.src_ip = ClientIp();
  spec.dst_ip = ServerIp();
  spec.fill_tcp_checksum = true;
  spec.tcp.src_port = static_cast<uint16_t>(kClientPortBase + flow);
  spec.tcp.dst_port = kServerPort;
  spec.tcp.seq = seq;
  spec.tcp.ack = ack;
  spec.tcp.flags = flags;
  spec.tcp.window = 65535;
  uint8_t ts[kTcpTimestampOptionSize];
  WriteTimestampOption(TcpTimestampOption{ts_value, 50}, ts);
  spec.tcp.raw_options.assign(ts, ts + kTcpTimestampOptionSize);
  // The synthetic stream's bytes, so the receiver checks them as a testbed receiver does.
  spec.payload = SendStream::PatternView(seq - kFirstDataSeq, payload_len);
  return BuildTcpFrame(spec);
}

// The pre-fault schedule: per-flow in-sequence data segments, interleaved across
// flows by a seed-derived (fault-independent) stream so shrinking the fault plan
// never changes the underlying traffic.
std::vector<WireFrame> BuildSchedule(const Scenario& s) {
  Rng rng(s.seed ^ 0x5851f42d4c957f2dull);
  std::vector<uint32_t> next_seq(s.flows, kFirstDataSeq);
  std::vector<uint32_t> count(s.flows, 0);
  std::vector<WireFrame> schedule;
  schedule.reserve(s.frames);
  for (size_t i = 0; i < s.frames; ++i) {
    WireFrame f;
    f.flow = rng.NextBelow(s.flows);
    f.seq = next_seq[f.flow];
    // Mostly full-MSS segments; occasional short ones exercise the odd-segment
    // delayed-ACK accounting.
    f.payload_len = rng.NextBool(0.85)
                        ? s.mss
                        : 1 + static_cast<uint32_t>(rng.NextBelow(s.mss));
    // Non-decreasing per flow in generation order, so aggregation chains (which
    // are seq-continuous by construction) never carry a decreasing timestamp.
    const uint32_t ts_value = 500 + count[f.flow] / 4;
    f.bytes = BuildClientFrame(f.flow, f.seq, 0, kTcpAck, f.payload_len, ts_value);
    next_seq[f.flow] += f.payload_len;
    ++count[f.flow];
    schedule.push_back(std::move(f));
  }
  return schedule;
}

// Applies the discrete fault plan in event order. Indices wrap modulo the current
// schedule length so shrunk plans remain well-formed.
void ApplyFaults(const std::vector<FaultEvent>& faults, std::vector<WireFrame>* frames) {
  for (const FaultEvent& e : faults) {
    if (frames->empty()) {
      return;
    }
    const size_t idx = e.index % frames->size();
    switch (e.kind) {
      case FaultEvent::Kind::kDrop:
        frames->erase(frames->begin() + static_cast<ptrdiff_t>(idx));
        break;
      case FaultEvent::Kind::kDuplicate: {
        WireFrame copy = (*frames)[idx];
        frames->insert(frames->begin() + static_cast<ptrdiff_t>(idx) + 1,
                       std::move(copy));
        break;
      }
      case FaultEvent::Kind::kReorder: {
        // Delay the frame by `arg` positions.
        const size_t distance = e.arg == 0 ? 1 : e.arg;
        for (size_t i = idx; i + 1 < frames->size() && i < idx + distance; ++i) {
          std::swap((*frames)[i], (*frames)[i + 1]);
        }
        break;
      }
      case FaultEvent::Kind::kCorrupt: {
        WireFrame& f = (*frames)[idx];
        if (!f.bytes.empty()) {
          f.bytes.back() ^= 0x40;  // always a payload byte: data frames are >= 1 byte
          f.csum_ok = false;       // the NIC's checksum verdict catches the flip
        }
        break;
      }
      case FaultEvent::Kind::kBurstDrop: {
        const size_t len = e.arg == 0 ? 2 : e.arg;
        const size_t last = idx + len > frames->size() ? frames->size() : idx + len;
        frames->erase(frames->begin() + static_cast<ptrdiff_t>(idx),
                      frames->begin() + static_cast<ptrdiff_t>(last));
        break;
      }
    }
  }
}

// Drives one NetworkStack frame by frame: no NICs, no links, no CPU clock, and the
// event loop advanced only at explicit points, so two harnesses fed the same
// schedule see byte-identical timelines.
class DirectHarness {
 public:
  DirectHarness(const StackConfig& config, size_t flows, PcapWriter* pcap)
      : pcap_(pcap), conns_(flows), delivered_(flows), tap_(flows) {
    stack_ = std::make_unique<NetworkStack>(
        config, loop_, [this](int, std::vector<uint8_t> frame) {
          if (pcap_ != nullptr) {
            pcap_->Record(loop_.Now(), frame);
          }
          sent_.push_back(std::move(frame));
        });
    stack_->AddLocalAddress(ServerIp(), 0);
    stack_->AddRoute(ClientIp(), 0);
    stack_->Listen(kServerPort, [this](TcpConnection& conn) {
      const size_t flow =
          static_cast<size_t>(conn.config().remote_port - kClientPortBase);
      if (flow >= conns_.size()) {
        return;
      }
      conns_[flow] = &conn;
      conn.EnableAckTrace();
      stack_->SetConnectionDataHandler(conn, [this, flow](std::span<const uint8_t> d) {
        delivered_[flow].Feed(d);
      });
    });
    stack_->set_host_packet_tap([this](const SkBuff& skb) {
      const TcpFrameView& view = skb.view();
      if (view.tcp.dst_port != kServerPort) {
        return;
      }
      const size_t flow = static_cast<size_t>(view.tcp.src_port - kClientPortBase);
      if (flow >= tap_.size()) {
        return;
      }
      if (skb.fragment_info.empty()) {
        if (view.payload_size > 0) {
          tap_[flow].emplace_back(view.tcp.seq, static_cast<uint32_t>(view.payload_size));
        }
      } else {
        for (const FragmentInfo& fi : skb.fragment_info) {
          if (fi.payload_len > 0) {
            tap_[flow].emplace_back(fi.seq, fi.payload_len);
          }
        }
      }
    });
  }

  void Feed(const WireFrame& f) {
    if (pcap_ != nullptr) {
      pcap_->Record(loop_.Now(), f.bytes);
    }
    PacketPtr p = stack_->packet_pool().Allocate(f.bytes);
    p->nic_checksum_verified = f.csum_ok;
    stack_->ReceiveFrame(std::move(p));
  }

  // Work-conserving flush point; records a violation if the aggregator still holds
  // a partial afterwards.
  void Idle() {
    stack_->OnReceiveQueueEmpty();
    const Aggregator* aggregator = stack_->aggregator();
    if (aggregator != nullptr && aggregator->PendingFlows() != 0) {
      ++work_violations_;
    }
  }

  void Advance(SimDuration d) { loop_.RunUntil(loop_.Now() + d); }

  // Server side of the handshake for every flow; returns per-flow server ISS.
  std::vector<uint32_t> HandshakeAll(size_t flows) {
    std::vector<uint32_t> iss(flows, 0);
    for (size_t f = 0; f < flows; ++f) {
      Feed(WireFrame{f, kFirstDataSeq - 1, 0, true,
                     BuildClientFrame(f, kFirstDataSeq - 1, 0, kTcpSyn, 0, 100)});
      Idle();
      if (sent_.empty()) {
        continue;
      }
      auto synack = ParseTcpFrame(sent_.back());
      if (!synack.has_value()) {
        continue;
      }
      iss[f] = synack->tcp.seq;
      Feed(WireFrame{f, kFirstDataSeq, 0, true,
                     BuildClientFrame(f, kFirstDataSeq, iss[f] + 1, kTcpAck, 0, 100)});
      Idle();
    }
    sent_.clear();
    return iss;
  }

  // Pure-ACK ack numbers transmitted so far, grouped by destination (client) flow.
  std::vector<std::vector<uint32_t>> SentAcksPerFlow(size_t flows) const {
    std::vector<std::vector<uint32_t>> out(flows);
    for (const auto& frame : sent_) {
      auto view = ParseTcpFrame(frame);
      if (!view.has_value() || view->payload_size != 0 || view->tcp.flags != kTcpAck) {
        continue;
      }
      const size_t flow = static_cast<size_t>(view->tcp.dst_port - kClientPortBase);
      if (flow < flows) {
        out[flow].push_back(view->tcp.ack);
      }
    }
    return out;
  }

  NetworkStack& stack() { return *stack_; }
  EventLoop& loop() { return loop_; }
  TcpConnection* conn(size_t flow) { return conns_[flow]; }
  const std::vector<std::vector<uint8_t>>& sent() const { return sent_; }
  const PatternCheck& delivered(size_t flow) const { return delivered_[flow]; }
  const std::vector<std::pair<uint32_t, uint32_t>>& tap(size_t flow) const {
    return tap_[flow];
  }
  size_t work_violations() const { return work_violations_; }

 private:
  EventLoop loop_;
  PcapWriter* pcap_;
  std::unique_ptr<NetworkStack> stack_;
  std::vector<std::vector<uint8_t>> sent_;
  std::vector<TcpConnection*> conns_;
  std::vector<PatternCheck> delivered_;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> tap_;
  size_t work_violations_ = 0;
};

std::string Fail(const char* oracle, const std::string& detail) {
  return std::string(oracle) + ": " + detail;
}

template <typename T>
void CompareSeq(const char* oracle, const std::string& label, const std::vector<T>& a,
                const std::vector<T>& b, std::vector<std::string>* failures) {
  if (a == b) {
    return;
  }
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) {
    ++i;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s sizes %zu vs %zu, first divergence at %zu",
                label.c_str(), a.size(), b.size(), i);
  failures->push_back(Fail(oracle, buf));
}

// "offset N" of a stream's first byte off the pattern, or "none".
std::string FirstMismatch(const PatternCheck& check) {
  return check.first_mismatch ? "offset " + std::to_string(*check.first_mismatch) : "none";
}

// Both runs deliver the synthetic pattern, and the same number of bytes of it.
void CompareStreams(const std::string& label, const PatternCheck& baseline,
                    const PatternCheck& optimized, std::vector<std::string>* failures) {
  if (!baseline.first_mismatch && !optimized.first_mismatch &&
      baseline.bytes == optimized.bytes) {
    return;
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s delivered %llu bytes vs %llu, first mismatch %s vs %s",
                label.c_str(), static_cast<unsigned long long>(baseline.bytes),
                static_cast<unsigned long long>(optimized.bytes),
                FirstMismatch(baseline).c_str(), FirstMismatch(optimized).c_str());
  failures->push_back(Fail("stream-pattern", buf));
}

StackConfig MakeStackConfig(const Scenario& s, bool optimized, size_t limit_override,
                            const DiffOptions& options, bool mutate) {
  StackConfig config = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                                 : StackConfig::Baseline(SystemType::kNativeUp);
  config.aggregation_limit = limit_override != 0 ? limit_override : s.aggregation_limit;
  if (optimized) {
    config.ack_offload = s.ack_offload;
  }
  config.delayed_acks = s.delayed_acks;
  config.fill_tcp_checksums = true;
  if (mutate) {
    config.debug_coalesce_fragment_acks = options.mutate_coalesce_acks;
    config.debug_skip_idle_flush = options.mutate_skip_idle_flush;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Direct-drive tier, unidirectional
// ---------------------------------------------------------------------------

struct UniObservation {
  std::vector<uint32_t> iss;
  std::vector<PatternCheck> delivered;
  std::vector<std::vector<uint32_t>> wire_acks;
  std::vector<std::vector<uint32_t>> hook_acks;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> tap;
  std::vector<std::vector<uint8_t>> sent;
  size_t work_violations = 0;
};

UniObservation RunUni(const StackConfig& config, const Scenario& s,
                      const std::vector<WireFrame>& schedule, PcapWriter* pcap) {
  DirectHarness h(config, s.flows, pcap);
  UniObservation obs;
  obs.iss = h.HandshakeAll(s.flows);
  size_t fed = 0;
  while (fed < schedule.size()) {
    for (size_t i = 0; i < s.batch && fed < schedule.size(); ++i, ++fed) {
      h.Feed(schedule[fed]);
    }
    h.Idle();
    h.Advance(SimDuration::FromMicros(150));
  }
  h.Idle();
  // Drain delayed-ACK timers (40 ms) at an identical point in both runs.
  h.Advance(SimDuration::FromMillis(100));

  obs.wire_acks = h.SentAcksPerFlow(s.flows);
  for (size_t f = 0; f < s.flows; ++f) {
    obs.delivered.push_back(h.delivered(f));
    obs.hook_acks.push_back(h.conn(f) != nullptr ? h.conn(f)->ack_trace()
                                                 : std::vector<uint32_t>{});
    obs.tap.push_back(h.tap(f));
  }
  obs.sent = h.sent();
  obs.work_violations = h.work_violations();
  return obs;
}

void DiffUnidirectional(const Scenario& s, const DiffOptions& options,
                        std::vector<std::string>* failures) {
  std::vector<WireFrame> schedule = BuildSchedule(s);
  ApplyFaults(s.faults, &schedule);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> fed(s.flows);
  for (const WireFrame& f : schedule) {
    if (f.payload_len > 0) {
      fed[f.flow].emplace_back(f.seq, f.payload_len);
    }
  }

  std::unique_ptr<PcapWriter> pcap;
  if (!options.pcap_path.empty()) {
    pcap = std::make_unique<PcapWriter>(options.pcap_path);
  }

  const UniObservation baseline =
      RunUni(MakeStackConfig(s, false, 0, options, false), s, schedule, nullptr);
  const UniObservation optimized =
      RunUni(MakeStackConfig(s, true, 0, options, true), s, schedule, pcap.get());
  const UniObservation limit1 =
      RunUni(MakeStackConfig(s, true, 1, options, false), s, schedule, nullptr);

  for (size_t f = 0; f < s.flows; ++f) {
    const std::string flow_label = "flow " + std::to_string(f);
    if (baseline.iss[f] != optimized.iss[f] || baseline.iss[f] != limit1.iss[f]) {
      failures->push_back(Fail("iss", flow_label + " server ISS diverged between runs"));
      return;  // ack numbers are incomparable from here on
    }
    CompareStreams(flow_label, baseline.delivered[f], optimized.delivered[f], failures);
    CompareSeq("ack-trace", flow_label + " baseline-vs-optimized wire ACKs",
               baseline.wire_acks[f], optimized.wire_acks[f], failures);
    // The connection-level hook must agree with the wire within each run.
    CompareSeq("ack-hook", flow_label + " baseline hook-vs-wire",
               baseline.hook_acks[f], baseline.wire_acks[f], failures);
    CompareSeq("ack-hook", flow_label + " optimized hook-vs-wire",
               optimized.hook_acks[f], optimized.wire_acks[f], failures);
    // Conservation + bypass ordering: the flattened fragment sequence entering TCP
    // must equal the fed per-flow schedule, for every stack.
    CompareSeq("aggregation-conservation", flow_label + " optimized tap-vs-fed",
               optimized.tap[f], fed[f], failures);
    CompareSeq("aggregation-conservation", flow_label + " baseline tap-vs-fed",
               baseline.tap[f], fed[f], failures);
  }

  // Aggregation limit 1 must be byte-identical to the baseline, frame for frame.
  if (baseline.sent.size() != limit1.sent.size()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "frame counts %zu vs %zu", baseline.sent.size(),
                  limit1.sent.size());
    failures->push_back(Fail("limit1-bytes", buf));
  } else {
    for (size_t i = 0; i < baseline.sent.size(); ++i) {
      if (baseline.sent[i] != limit1.sent[i]) {
        failures->push_back(
            Fail("limit1-bytes", "frame " + std::to_string(i) + " differs"));
        break;
      }
    }
  }

  if (optimized.work_violations != 0) {
    failures->push_back(Fail("work-conservation",
                             std::to_string(optimized.work_violations) +
                                 " idle flush(es) left partial aggregates pending"));
  }
  if (limit1.work_violations != 0) {
    failures->push_back(Fail("work-conservation", "limit-1 run left partials pending"));
  }
}

// ---------------------------------------------------------------------------
// Direct-drive tier, bidirectional (cwnd-trace scenario)
// ---------------------------------------------------------------------------

struct BidirObservation {
  std::vector<uint32_t> cwnd_trace;
  PatternCheck delivered;
  size_t work_violations = 0;
};

BidirObservation RunBidir(const StackConfig& config, const Scenario& s,
                          PcapWriter* pcap) {
  DirectHarness h(config, 1, pcap);
  BidirObservation obs;
  const std::vector<uint32_t> iss = h.HandshakeAll(1);
  TcpConnection* server = h.conn(0);
  if (server == nullptr) {
    return obs;
  }
  server->congestion().EnableTrace();
  server->SendSynthetic(UINT64_MAX / 4);
  h.Advance(SimDuration::FromMillis(1));

  const size_t rounds = 2 + s.frames / (s.batch == 0 ? 1 : s.batch);
  uint32_t client_seq = kFirstDataSeq;
  uint32_t acked = 0;
  uint32_t generated = 0;
  for (size_t round = 0; round < rounds; ++round) {
    // Acknowledge what the server has sent so far, spread across this round's data
    // frames (each carrying a piggybacked cumulative ACK).
    const uint64_t outstanding = server->snd_nxt_ext() - (iss[0] + 1);
    std::vector<WireFrame> local;
    for (size_t i = 0; i < s.batch; ++i) {
      if (acked + s.mss <= outstanding) {
        acked += s.mss;
      }
      WireFrame f;
      f.flow = 0;
      f.seq = client_seq;
      f.payload_len = s.mss;
      const uint32_t ts_value = 600 + generated / 4;
      f.bytes = BuildClientFrame(0, client_seq, iss[0] + 1 + acked, kTcpAck, s.mss,
                                 ts_value);
      client_seq += s.mss;
      ++generated;
      local.push_back(std::move(f));
    }
    // Apply the slice of the fault plan that falls into this round.
    const uint32_t base = static_cast<uint32_t>(round) * static_cast<uint32_t>(s.batch);
    std::vector<FaultEvent> local_faults;
    for (const FaultEvent& e : s.faults) {
      if (e.index >= base && e.index < base + s.batch) {
        FaultEvent shifted = e;
        shifted.index = e.index - base;
        local_faults.push_back(shifted);
      }
    }
    ApplyFaults(local_faults, &local);
    for (const WireFrame& f : local) {
      h.Feed(f);
    }
    h.Idle();
    h.Advance(SimDuration::FromMicros(100));
  }
  obs.cwnd_trace = server->congestion().trace();
  obs.delivered = h.delivered(0);
  obs.work_violations = h.work_violations();
  return obs;
}

void DiffBidirectional(const Scenario& s, const DiffOptions& options,
                       std::vector<std::string>* failures) {
  std::unique_ptr<PcapWriter> pcap;
  if (!options.pcap_path.empty()) {
    pcap = std::make_unique<PcapWriter>(options.pcap_path);
  }
  const BidirObservation baseline =
      RunBidir(MakeStackConfig(s, false, 0, options, false), s, nullptr);
  const BidirObservation optimized =
      RunBidir(MakeStackConfig(s, true, 0, options, true), s, pcap.get());

  CompareSeq("cwnd-trace", "baseline-vs-optimized", baseline.cwnd_trace,
             optimized.cwnd_trace, failures);
  CompareStreams("flow 0", baseline.delivered, optimized.delivered, failures);
  if (optimized.work_violations != 0) {
    failures->push_back(Fail("work-conservation",
                             std::to_string(optimized.work_violations) +
                                 " idle flush(es) left partial aggregates pending"));
  }
}

// ---------------------------------------------------------------------------
// Full-testbed tier
// ---------------------------------------------------------------------------

LinkConfig ScenarioLink(const Scenario& s) {
  LinkConfig link;
  link.drop_probability = s.drop_p;
  link.duplicate_probability = s.duplicate_p;
  link.corrupt_probability = s.corrupt_p;
  link.reorder_probability = s.reorder_p;
  link.burst_drop_period = s.burst_period;
  link.burst_drop_length = s.burst_length;
  link.fault_seed = (s.seed & 0xffff) | 1;
  return link;
}

// Baseline vs optimized under probabilistic link faults: the byte stream must
// arrive complete and exact in both.
void TestbedCompleteness(const Scenario& s, std::vector<std::string>* failures) {
  constexpr uint64_t kTotal = 400'000;
  for (const bool optimized : {false, true}) {
    Testbed bed(CompletenessConfig(s, optimized));
    PatternCheck delivered;
    bed.stack().Listen(kServerPort, [&](TcpConnection& conn) {
      bed.stack().SetConnectionDataHandler(
          conn, [&](std::span<const uint8_t> data) { delivered.Feed(data); });
    });
    TcpConnectionConfig conn_config =
        bed.ClientConnectionConfig(0, kClientPortBase, kServerPort);
    conn_config.mss = s.mss;
    TcpConnection* client = bed.remote(0).CreateConnection(conn_config);
    client->Connect();
    client->SendSynthetic(kTotal);
    bed.loop().RunUntil(SimTime::FromSeconds(25));

    if (delivered.first_mismatch || delivered.bytes != kTotal) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "[%s] delivered %llu/%llu bytes, first mismatch %s",
                    optimized ? "optimized" : "baseline",
                    static_cast<unsigned long long>(delivered.bytes),
                    static_cast<unsigned long long>(kTotal), FirstMismatch(delivered).c_str());
      failures->push_back(Fail("testbed-completeness", buf));
    }
  }
}

// 1-core vs N-core RSS: every flow delivers its whole pattern stream at both core
// counts (clean links: RSS flow affinity must not reorder within a flow).
void TestbedRssStreams(const Scenario& s, std::vector<std::string>* failures) {
  if (s.cores < 2) {
    return;
  }
  constexpr uint64_t kPerFlow = 150'000;
  auto run = [&](size_t cores) {
    std::vector<PatternCheck> delivered(s.flows);
    Testbed bed(RssConfig(s, cores));
    for (size_t core = 0; core < bed.num_cores(); ++core) {
      NetworkStack& shard = bed.stack_shard(core);
      shard.Listen(kServerPort, [&shard, &delivered](TcpConnection& conn) {
        PatternCheck& flow =
            delivered[static_cast<size_t>(conn.config().remote_port - kClientPortBase)];
        shard.SetConnectionDataHandler(
            conn, [&flow](std::span<const uint8_t> data) { flow.Feed(data); });
      });
    }
    for (size_t f = 0; f < s.flows; ++f) {
      TcpConnectionConfig conn_config = bed.ClientConnectionConfig(
          0, static_cast<uint16_t>(kClientPortBase + f), kServerPort);
      conn_config.mss = s.mss;
      TcpConnection* client = bed.remote(0).CreateConnection(conn_config);
      client->Connect();
      client->SendSynthetic(kPerFlow);
    }
    bed.loop().RunUntil(SimTime::FromSeconds(20));
    return delivered;
  };

  const std::vector<PatternCheck> one_core = run(1);
  const std::vector<PatternCheck> n_core = run(s.cores);
  for (size_t f = 0; f < s.flows; ++f) {
    const PatternCheck& a = one_core[f];
    const PatternCheck& b = n_core[f];
    if (a.first_mismatch || b.first_mismatch || a.bytes != kPerFlow || b.bytes != kPerFlow) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "flow %zu delivered %llu bytes at 1 core vs %llu at %zu cores "
                    "(expected %llu), first mismatch %s vs %s",
                    f, static_cast<unsigned long long>(a.bytes),
                    static_cast<unsigned long long>(b.bytes), s.cores,
                    static_cast<unsigned long long>(kPerFlow), FirstMismatch(a).c_str(),
                    FirstMismatch(b).c_str());
      failures->push_back(Fail("rss-pattern", buf));
    }
  }
}

}  // namespace

TestbedConfig CompletenessConfig(const Scenario& scenario, bool optimized) {
  TestbedConfig config;
  config.stack = MakeStackConfig(scenario, optimized, 0, DiffOptions{}, false);
  config.num_nics = 1;
  config.client_to_server_link = ScenarioLink(scenario);
  return config;
}

TestbedConfig RssConfig(const Scenario& scenario, size_t cores) {
  TestbedConfig config;
  config.stack = MakeStackConfig(scenario, true, 0, DiffOptions{}, false);
  config.stack.system = SystemType::kNativeSmp;
  config.num_nics = 1;
  config.smp.num_cores = cores;
  config.smp.rss.enabled = true;
  return config;
}

DiffResult RunScenario(const Scenario& scenario, const DiffOptions& options) {
  DiffResult result;
  if (scenario.bidirectional) {
    DiffBidirectional(scenario, options, &result.failures);
  } else {
    DiffUnidirectional(scenario, options, &result.failures);
  }
  if (options.run_testbed) {
    TestbedCompleteness(scenario, &result.failures);
    TestbedRssStreams(scenario, &result.failures);
  }
  return result;
}

}  // namespace fuzz
}  // namespace tcprx
