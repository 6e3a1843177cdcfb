#include "src/fuzz/differ.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "src/fuzz/direct_harness.h"
#include "src/util/byte_order.h"
#include "src/util/rng.h"

namespace tcprx {
namespace fuzz {
namespace {

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
    const size_t flow = rng.NextBelow(s.flows);
    // Mostly full-MSS segments; occasional short ones exercise the odd-segment
    // delayed-ACK accounting.
    const uint32_t payload_len =
        rng.NextBool(0.85) ? s.mss : 1 + static_cast<uint32_t>(rng.NextBelow(s.mss));
    // Non-decreasing per flow in generation order, so aggregation chains (which
    // are seq-continuous by construction) never carry a decreasing timestamp.
    const uint32_t ts_value = 500 + count[flow] / 4;
    schedule.push_back(DataFrame(flow, next_seq[flow], 0, payload_len, ts_value));
    next_seq[flow] += payload_len;
    ++count[flow];
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

// --mutate=payload: flips the byte at stream offset kWrongPayloadByteOffset in each
// frame of `frames` that carries it, and refills the frame's TCP checksum, so that
// every stack accepts the wrong byte and delivers it.
void PlantWrongPayloadByte(std::vector<WireFrame>* frames) {
  for (WireFrame& f : *frames) {
    const uint32_t offset = f.seq - kFirstDataSeq;
    if (kWrongPayloadByteOffset < offset || kWrongPayloadByteOffset - offset >= f.payload_len) {
      continue;
    }
    const std::optional<TcpFrameView> view = ParseTcpFrame(f.bytes);
    f.bytes[view->payload_offset + (kWrongPayloadByteOffset - offset)] ^= 0x01;
    uint8_t* checksum = f.bytes.data() + view->tcp_offset + 16;
    StoreBe16(checksum, 0);
    const std::span<const uint8_t> segment = std::span<const uint8_t>(f.bytes).subspan(
        view->tcp_offset, view->tcp.HeaderSize() + view->payload_size);
    const std::span<const uint8_t> payload[] = {segment.subspan(view->tcp.HeaderSize())};
    StoreBe16(checksum, TcpChecksum(view->ip.src, view->ip.dst,
                                    segment.first(view->tcp.HeaderSize()), payload));
  }
}

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

// A flow that never connected leaves empty, and so equal, streams and traces in
// every run, which the other oracles would pass: each run must accept every flow.
void CheckAccepted(const char* run, const std::vector<size_t>& unaccepted,
                   std::vector<std::string>* failures) {
  for (const size_t flow : unaccepted) {
    failures->push_back(Fail("handshake", "flow " + std::to_string(flow) +
                                              " never accepted in the " + run + " run"));
  }
}

// ---------------------------------------------------------------------------
// Direct-drive tier, unidirectional
// ---------------------------------------------------------------------------

struct UniObservation {
  std::vector<size_t> unaccepted;
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
  obs.iss = h.HandshakeAll();
  obs.unaccepted = h.Unaccepted();
  h.Drive(schedule, s.batch);
  h.Idle();
  // Drain delayed-ACK timers (40 ms) at an identical point in both runs.
  h.Advance(SimDuration::FromMillis(100));

  obs.wire_acks = h.SentAcksPerFlow();
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
  if (options.mutate_payload) {
    PlantWrongPayloadByte(&schedule);
  }
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
  const size_t failed_before = failures->size();
  CheckAccepted("baseline", baseline.unaccepted, failures);
  CheckAccepted("optimized", optimized.unaccepted, failures);
  CheckAccepted("limit-1", limit1.unaccepted, failures);
  if (failures->size() != failed_before) {
    return;
  }

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
  std::vector<size_t> unaccepted;
  std::vector<uint32_t> cwnd_trace;
  PatternCheck delivered;
  size_t work_violations = 0;
};

BidirObservation RunBidir(const StackConfig& config, const Scenario& s,
                          const DiffOptions& options, PcapWriter* pcap) {
  DirectHarness h(config, 1, pcap);
  BidirObservation obs;
  const std::vector<uint32_t> iss = h.HandshakeAll();
  obs.unaccepted = h.Unaccepted();
  TcpConnection* server = h.conn(0);
  if (server == nullptr) {
    return obs;
  }
  server->congestion().EnableTrace();
  server->SendSynthetic(UINT64_MAX / 4);
  h.Advance(SimDuration::FromMillis(1));

  const size_t rounds = 2 + s.frames / (s.batch == 0 ? 1 : s.batch);
  // The client acknowledges in steps of its MSS, but never more than the server's
  // first flight at once: a larger step would never be outstanding, and the window
  // would never move.
  const uint32_t ack_step = static_cast<uint32_t>(
      std::min<uint64_t>(s.mss, server->snd_nxt_ext() - (iss[0] + 1)));
  uint32_t client_seq = kFirstDataSeq;
  uint32_t acked = 0;
  uint32_t generated = 0;
  for (size_t round = 0; round < rounds; ++round) {
    // Acknowledge what the server has sent so far, spread across this round's data
    // frames (each carrying a piggybacked cumulative ACK).
    const uint64_t outstanding = server->snd_nxt_ext() - (iss[0] + 1);
    std::vector<WireFrame> local;
    for (size_t i = 0; i < s.batch; ++i) {
      if (acked + ack_step <= outstanding) {
        acked += ack_step;
      }
      const uint32_t ts_value = 600 + generated / 4;
      local.push_back(DataFrame(0, client_seq, iss[0] + 1 + acked, s.mss, ts_value));
      client_seq += s.mss;
      ++generated;
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
    if (options.mutate_payload) {
      PlantWrongPayloadByte(&local);
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
      RunBidir(MakeStackConfig(s, false, 0, options, false), s, options, nullptr);
  const BidirObservation optimized =
      RunBidir(MakeStackConfig(s, true, 0, options, true), s, options, pcap.get());
  const size_t failed_before = failures->size();
  CheckAccepted("baseline", baseline.unaccepted, failures);
  CheckAccepted("optimized", optimized.unaccepted, failures);
  if (failures->size() != failed_before) {
    return;
  }
  // A trace of fewer than two windows records no growth to compare.
  if (baseline.cwnd_trace.size() < 2) {
    failures->push_back(Fail("cwnd-trace", "baseline trace has " +
                                               std::to_string(baseline.cwnd_trace.size()) +
                                               " entries"));
  }

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
  Testbed::TransferOptions transfer;
  transfer.bytes_per_flow = 400'000;
  transfer.client_mss = s.mss;
  transfer.deadline = SimTime::FromSeconds(25);
  for (const bool optimized : {false, true}) {
    const PatternCheck delivered =
        Testbed(CompletenessConfig(s, optimized)).RunTransfer(transfer)[0];
    if (delivered.first_mismatch || delivered.bytes != transfer.bytes_per_flow) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "[%s] delivered %llu/%llu bytes, first mismatch %s",
                    optimized ? "optimized" : "baseline",
                    static_cast<unsigned long long>(delivered.bytes),
                    static_cast<unsigned long long>(transfer.bytes_per_flow),
                    FirstMismatch(delivered).c_str());
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
  Testbed::TransferOptions transfer;
  transfer.flows = s.flows;
  transfer.bytes_per_flow = 150'000;
  transfer.client_mss = s.mss;
  transfer.deadline = SimTime::FromSeconds(20);
  const uint64_t per_flow = transfer.bytes_per_flow;
  const std::vector<PatternCheck> one_core = Testbed(RssConfig(s, 1)).RunTransfer(transfer);
  const std::vector<PatternCheck> n_core =
      Testbed(RssConfig(s, s.cores)).RunTransfer(transfer);
  for (size_t f = 0; f < s.flows; ++f) {
    const PatternCheck& a = one_core[f];
    const PatternCheck& b = n_core[f];
    if (a.first_mismatch || b.first_mismatch || a.bytes != per_flow || b.bytes != per_flow) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "flow %zu delivered %llu bytes at 1 core vs %llu at %zu cores "
                    "(expected %llu), first mismatch %s vs %s",
                    f, static_cast<unsigned long long>(a.bytes),
                    static_cast<unsigned long long>(b.bytes), s.cores,
                    static_cast<unsigned long long>(per_flow), FirstMismatch(a).c_str(),
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
