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

// Mutation::kWrongPayload: flips the byte at stream offset kWrongPayloadByteOffset in each
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

StackConfig MakeStackConfig(const Scenario& s, bool optimized, size_t limit_override) {
  StackConfig config = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                                 : StackConfig::Baseline(SystemType::kNativeUp);
  config.aggregation_limit = limit_override != 0 ? limit_override : s.aggregation_limit;
  if (optimized) {
    config.ack_offload = s.ack_offload;
  }
  config.delayed_acks = s.delayed_acks;
  config.fill_tcp_checksums = true;
  return config;
}

// ---------------------------------------------------------------------------
// Direct-drive tier
// ---------------------------------------------------------------------------

// The direct-drive runs in the order they run and report; bidirectional scenarios skip
// limit-1. A mutation breaks, and the pcap records, the optimized run.
struct DirectRunSpec {
  const char* name;
  bool optimized;
  size_t limit_override;
};
constexpr DirectRunSpec kDirectRuns[] = {
    {"baseline", false, 0}, {"optimized", true, 0}, {"limit-1", true, 1}};
constexpr size_t kOptimizedRun = 1;

// Bidirectional traffic: the server sends bulk data with its congestion window traced,
// and each round the client sends a batch of data frames whose piggybacked ACKs cover
// what the server has sent so far, faulted by the slice of the plan in that round.
void DriveAdaptiveRounds(DirectHarness& h, const Scenario& s, Mutation mutation) {
  TcpConnection* server = h.conn(0);
  if (server == nullptr) {
    return;
  }
  const std::vector<uint32_t>& iss = h.iss();
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
    if (mutation == Mutation::kWrongPayload) {
      PlantWrongPayloadByte(&local);
    }
    ApplyFaults(local_faults, &local);
    for (const WireFrame& f : local) {
      h.Feed(f);
    }
    h.Idle();
    h.Advance(SimDuration::FromMicros(100));
  }
}

// Bidirectional oracle: the server's congestion window grows the same way in both runs.
void CheckCwndTrace(const DirectHarness& baseline, const DirectHarness& optimized,
                    std::vector<std::string>* failures) {
  const std::vector<uint32_t>& trace = baseline.conn(0)->congestion().trace();
  // A trace of fewer than two windows records no growth to compare.
  if (trace.size() < 2) {
    failures->push_back(
        Fail("cwnd-trace", "baseline trace has " + std::to_string(trace.size()) + " entries"));
  }
  CompareSeq("cwnd-trace", "baseline-vs-optimized", trace,
             optimized.conn(0)->congestion().trace(), failures);
}

// Unidirectional oracles of one flow, after its stream: the ACKs on the wire, the
// connection's ACK hook against them, and every fed segment entering TCP once, in order.
void CheckAcksAndTap(size_t flow, const std::string& flow_label,
                     const std::vector<WireFrame>& schedule, const DirectHarness& baseline,
                     const DirectHarness& optimized, std::vector<std::string>* failures) {
  const std::vector<std::vector<uint32_t>> baseline_acks = baseline.SentAcksPerFlow();
  const std::vector<std::vector<uint32_t>> optimized_acks = optimized.SentAcksPerFlow();
  CompareSeq("ack-trace", flow_label + " baseline-vs-optimized wire ACKs", baseline_acks[flow],
             optimized_acks[flow], failures);
  CompareSeq("ack-hook", flow_label + " baseline hook-vs-wire",
             baseline.conn(flow)->ack_trace(), baseline_acks[flow], failures);
  CompareSeq("ack-hook", flow_label + " optimized hook-vs-wire",
             optimized.conn(flow)->ack_trace(), optimized_acks[flow], failures);
  std::vector<std::pair<uint32_t, uint32_t>> fed;
  for (const WireFrame& f : schedule) {
    if (f.flow == flow && f.payload_len > 0) {
      fed.emplace_back(f.seq, f.payload_len);
    }
  }
  CompareSeq("aggregation-conservation", flow_label + " optimized tap-vs-fed",
             optimized.tap(flow), fed, failures);
  CompareSeq("aggregation-conservation", flow_label + " baseline tap-vs-fed",
             baseline.tap(flow), fed, failures);
}

// Unidirectional oracle: aggregation limit 1 is byte-identical to the baseline, frame
// for frame.
void CheckLimit1Bytes(const DirectHarness& baseline, const DirectHarness& limit1,
                      std::vector<std::string>* failures) {
  const std::vector<std::vector<uint8_t>>& a = baseline.sent();
  const std::vector<std::vector<uint8_t>>& b = limit1.sent();
  if (a.size() != b.size()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "frame counts %zu vs %zu", a.size(), b.size());
    failures->push_back(Fail("limit1-bytes", buf));
    return;
  }
  const auto diverged = std::mismatch(a.begin(), a.end(), b.begin()).first;
  if (diverged != a.end()) {
    failures->push_back(
        Fail("limit1-bytes", "frame " + std::to_string(diverged - a.begin()) + " differs"));
  }
}

// Drives every direct-drive run of `s`, then checks the finished harnesses.
void DiffDirect(const Scenario& s, const DiffOptions& options, PcapWriter* pcap,
                std::vector<std::string>* failures) {
  // The bidirectional scenario drives one connection.
  const size_t flows = s.bidirectional ? 1 : s.flows;
  std::vector<WireFrame> schedule;
  if (!s.bidirectional) {
    schedule = BuildSchedule(s);
    if (options.mutation == Mutation::kWrongPayload) {
      PlantWrongPayloadByte(&schedule);
    }
    ApplyFaults(s.faults, &schedule);
  }

  std::vector<std::unique_ptr<DirectHarness>> runs;
  for (size_t i = 0; i < (s.bidirectional ? 2 : 3); ++i) {
    const DirectRunSpec& spec = kDirectRuns[i];
    const bool mutated = i == kOptimizedRun;
    DirectHarness& h = *runs.emplace_back(std::make_unique<DirectHarness>(
        MakeStackConfig(s, spec.optimized, spec.limit_override), flows,
        mutated ? pcap : nullptr, mutated ? options.mutation : Mutation::kNone));
    h.HandshakeAll();
    if (s.bidirectional) {
      DriveAdaptiveRounds(h, s, options.mutation);
    } else {
      h.Drive(schedule, s.batch);
      h.Idle();
      // Drain delayed-ACK timers (40 ms) at an identical point in every run.
      h.Advance(SimDuration::FromMillis(100));
    }
  }

  // A flow that never connected leaves empty, and so equal, streams and traces in
  // every run, which the other oracles would pass: each run must accept every flow.
  const size_t failed_before = failures->size();
  for (size_t i = 0; i < runs.size(); ++i) {
    for (const size_t flow : runs[i]->Unaccepted()) {
      failures->push_back(Fail("handshake", "flow " + std::to_string(flow) +
                                                " never accepted in the " +
                                                kDirectRuns[i].name + " run"));
    }
  }
  if (failures->size() != failed_before) {
    return;
  }

  // The checks run in the order their failure lines print, which a repro keeps: the
  // cwnd trace before the stream, the ACK and tap oracles after it.
  const DirectHarness& baseline = *runs[0];
  const DirectHarness& optimized = *runs[kOptimizedRun];
  for (size_t f = 0; f < flows; ++f) {
    const std::string flow_label = "flow " + std::to_string(f);
    for (const auto& run : runs) {
      if (run->iss()[f] != baseline.iss()[f]) {
        failures->push_back(Fail("iss", flow_label + " server ISS diverged between runs"));
        return;  // ack numbers are incomparable from here on
      }
    }
    if (s.bidirectional) {
      CheckCwndTrace(baseline, optimized, failures);
    }
    CompareStreams(flow_label, baseline.delivered(f), optimized.delivered(f), failures);
    if (!s.bidirectional) {
      CheckAcksAndTap(f, flow_label, schedule, baseline, optimized, failures);
    }
  }
  if (!s.bidirectional) {
    CheckLimit1Bytes(baseline, *runs[2], failures);
  }

  // The work-conserving flush held in every run (the baseline has no aggregator).
  for (size_t i = 0; i < runs.size(); ++i) {
    const size_t violations = runs[i]->work_violations();
    if (violations != 0) {
      failures->push_back(Fail(
          "work-conservation",
          i == kOptimizedRun
              ? std::to_string(violations) + " idle flush(es) left partial aggregates pending"
              : std::string(kDirectRuns[i].name) + " run left partials pending"));
    }
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
  const std::vector<PatternCheck> one_core = Testbed(RssBedConfig(s, 1)).RunTransfer(transfer);
  const std::vector<PatternCheck> n_core =
      Testbed(RssBedConfig(s, s.cores)).RunTransfer(transfer);
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
  config.stack = MakeStackConfig(scenario, optimized, 0);
  config.num_nics = 1;
  config.client_to_server_link = ScenarioLink(scenario);
  return config;
}

TestbedConfig RssBedConfig(const Scenario& scenario, size_t cores) {
  TestbedConfig config;
  config.stack = MakeStackConfig(scenario, true, 0);
  config.stack.system = SystemType::kNativeSmp;
  config.num_nics = 1;
  config.smp.num_cores = cores;
  config.smp.rss.enabled = true;
  return config;
}

DiffResult RunScenario(const Scenario& scenario, const DiffOptions& options) {
  DiffResult result;
  std::unique_ptr<PcapWriter> pcap;
  if (!options.pcap_path.empty()) {
    pcap = std::make_unique<PcapWriter>(options.pcap_path);
  }
  DiffDirect(scenario, options, pcap.get(), &result.failures);
  if (options.run_testbed) {
    TestbedCompleteness(scenario, &result.failures);
    TestbedRssStreams(scenario, &result.failures);
  }
  return result;
}

}  // namespace fuzz
}  // namespace tcprx
