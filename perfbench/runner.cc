#include "perfbench/runner.h"

#include <memory>

#include "perfbench/host_clock.h"

namespace perfbench {
namespace {

using tcprx::SimTime;
using tcprx::TcpConnection;

// The remote senders' connections, one per stream flow, in a fixed order.
template <typename Bed>
std::vector<const TcpConnection*> Senders(Bed& bed, const Workload& w) {
  std::vector<const TcpConnection*> senders;
  for (size_t i = 0; i < w.config.num_nics; ++i) {
    for (const auto& c : bed.remote(i).connections()) {
      senders.push_back(c.get());
    }
  }
  return senders;
}

// Records the bytes each sender has had acknowledged when the window opens, from an
// event scheduled before the run. The event touches no simulated state, and both
// beds schedule it, so their event sequences stay identical.
template <typename Bed>
std::shared_ptr<std::vector<uint64_t>> RecordWindowStart(Bed& bed, const Workload& w) {
  auto bytes = std::make_shared<std::vector<uint64_t>>();
  bed.loop().ScheduleAt(w.window_start(), [&bed, &w, bytes] {
    for (const TcpConnection* c : Senders(bed, w)) {
      bytes->push_back(c->bytes_acked());
    }
  });
  return bytes;
}

struct ServerView {
  std::vector<uint64_t> bytes;
  bool all_established = true;
};

template <typename Bed>
ServerView ViewServer(Bed& bed) {
  ServerView v;
  bed.ForEachConnection([&v](TcpConnection& c) {
    v.bytes.push_back(c.bytes_received());
    v.all_established = v.all_established && c.state() == tcprx::TcpState::kEstablished;
  });
  return v;
}

// Whether seeded loss explains why `c` had nothing acknowledged in the window: its SYN
// is unanswered, or it has data outstanding that it waits to resend on the
// retransmission timer (at least 200 ms, longer than the window), because too few
// segments followed the lost one to draw three duplicate ACKs or the resent segment
// was lost as well.
bool StallExplainedByLoss(const TcpConnection& c) {
  return c.state() == tcprx::TcpState::kSynSent ||
         (c.state() == tcprx::TcpState::kEstablished && c.snd_una_ext() < c.snd_nxt_ext());
}

template <typename Bed>
uint64_t StackDrops(Bed& bed) {
  uint64_t drops = 0;
  for (size_t c = 0; c < bed.num_cores(); ++c) {
    const tcprx::NetworkStack::Stats& s = bed.stack_shard(c).stats();
    drops += s.frames_dropped_unparseable + s.frames_dropped_ip +
             s.frames_dropped_bad_checksum + s.frames_dropped_no_connection;
  }
  return drops;
}

template <typename Bed>
void CheckStream(Bed& bed, const Workload& w, const tcprx::StreamResult& r,
                 const std::vector<uint64_t>& start_acked, std::vector<std::string>& failures) {
  const std::vector<const TcpConnection*> senders = Senders(bed, w);
  const size_t expected = w.config.num_nics * w.stream_options.connections_per_nic;
  if (senders.size() != expected || start_acked.size() != expected) {
    failures.push_back("expected " + std::to_string(expected) + " sender connections, found " +
                       std::to_string(senders.size()));
    return;
  }
  // Every flow must make progress in the window, unless seeded loss stalled it; a
  // stall must leave most flows running.
  size_t stalled = 0;
  size_t syn_unanswered = 0;
  for (size_t i = 0; i < expected; ++i) {
    const TcpConnection& c = *senders[i];
    if (c.bytes_acked() > start_acked[i]) {
      continue;
    }
    if (!w.lossy || !StallExplainedByLoss(c)) {
      failures.push_back(
          "connection " + std::to_string(i) + " had no bytes acknowledged in the window (state " +
          std::to_string(static_cast<int>(c.state())) + ", " +
          std::to_string(c.snd_nxt_ext() - c.snd_una_ext()) + " bytes outstanding, " +
          std::to_string(c.segments_retransmitted()) + " retransmits, " +
          std::to_string(c.rto_events()) + " timeouts)");
      continue;
    }
    ++stalled;
    if (c.state() == tcprx::TcpState::kSynSent) {
      ++syn_unanswered;
    }
  }
  if (4 * stalled > expected) {
    failures.push_back(std::to_string(stalled) + " of " + std::to_string(expected) +
                       " connections stalled on loss in the window");
  }
  // A server connection exists for every SYN that arrived, and each is ESTABLISHED.
  const ServerView server = ViewServer(bed);
  if (server.bytes.size() + syn_unanswered != expected) {
    failures.push_back("found " + std::to_string(server.bytes.size()) +
                       " server connections for " + std::to_string(expected - syn_unanswered) +
                       " answered SYNs");
  }
  if (!server.all_established) {
    failures.push_back("a server connection is not ESTABLISHED");
  }
  // The only injected fault is loss on the wire, which never reaches the stack.
  if (StackDrops(bed) != 0) {
    failures.push_back("the stack dropped frames");
  }
  if (w.lossy && r.retransmits == 0) {
    failures.push_back("seeded loss caused no retransmission");
  }
  if (!w.lossy && (r.nic_drops != 0 || r.retransmits != 0)) {
    failures.push_back("a loss-free run dropped or retransmitted");
  }
}

template <typename Bed>
void CheckLatency(Bed& bed, const Workload& w, const tcprx::LatencyResult& r,
                  std::vector<std::string>& failures) {
  const ServerView server = ViewServer(bed);
  const auto& clients = bed.remote(0).connections();
  if (server.bytes.size() != 1 || clients.size() != 1) {
    failures.push_back("expected one request/response connection");
    return;
  }
  if (!server.all_established) {
    failures.push_back("the server connection is not ESTABLISHED");
  }
  // Each request is echoed with a reply of its size, one transaction at a time: the
  // client trails the server by at most the one message in flight.
  const uint64_t requests = server.bytes[0];
  const uint64_t replies = clients[0]->bytes_received();
  if (replies > requests || requests - replies > w.latency_options.message_size) {
    failures.push_back("server received " + std::to_string(requests) +
                       " request bytes but the client got " + std::to_string(replies) +
                       " reply bytes");
  }
  if (r.transactions == 0) {
    failures.push_back("no transaction completed in the window");
  }
  if (StackDrops(bed) != 0) {
    failures.push_back("the stack dropped frames");
  }
}

}  // namespace

double MeanSetupCpuSeconds(const Workload& w, size_t builds) {
  const double start = ProcessCpuSeconds();
  for (size_t i = 0; i < builds; ++i) {
    const tcprx::Testbed bed(w.config);
  }
  return (ProcessCpuSeconds() - start) / static_cast<double>(builds);
}

UntracedRep RunUntraced(const Workload& w) {
  UntracedRep rep;
  tcprx::Testbed bed(w.config);
  const auto start_bytes = RecordWindowStart(bed, w);
  // Host CPU time at the end of each slice but the last, read by events that touch no
  // simulated state.
  auto marks = std::make_shared<std::vector<double>>();
  marks->reserve(kRunSlices);
  const uint64_t end_ns = w.window_end().nanos();
  for (size_t k = 1; k < kRunSlices; ++k) {
    bed.loop().ScheduleAt(SimTime::FromNanos(end_ns / kRunSlices * k),
                          [marks] { marks->push_back(ProcessCpuSeconds()); });
  }
  const double run_start = ProcessCpuSeconds();
  if (w.stream) {
    rep.sim.stream = bed.RunStream(w.stream_options);
  } else {
    rep.sim.latency = bed.RunLatency(w.latency_options);
  }
  const double run_end = ProcessCpuSeconds();
  rep.run_cpu_s = run_end - run_start;
  marks->push_back(run_end);
  double slice_start = run_start;
  for (double mark : *marks) {
    rep.slice_cpu_s.push_back(mark - slice_start);
    slice_start = mark;
  }
  if (rep.slice_cpu_s.size() != kRunSlices) {
    rep.failures.push_back("the run did not reach every slice of simulated time");
    rep.slice_cpu_s.resize(kRunSlices);
  }

  if (w.stream) {
    rep.cpu_utilization = rep.sim.stream.cpu_utilization;
    CheckStream(bed, w, rep.sim.stream, *start_bytes, rep.failures);
  } else {
    double busy = 0;
    for (size_t c = 0; c < bed.num_cores(); ++c) {
      busy += bed.core(c).Utilization(w.window_start(), w.window_end());
    }
    rep.cpu_utilization = busy / static_cast<double>(bed.num_cores());
    CheckLatency(bed, w, rep.sim.latency, rep.failures);
  }
  return rep;
}

TracedRep RunTraced(const Workload& w) {
  TracedRep rep;
  SpanTracer tracer(&WallNanos);
  TracedBed bed(w.config, tracer);

  const auto start_bytes = RecordWindowStart(bed, w);
  const double run_start = ProcessCpuSeconds();
  uint64_t reply_errors = 0;
  if (w.stream) {
    rep.sim.stream = bed.RunStream(w.stream_options);
  } else {
    rep.sim.latency = bed.RunLatency(w.latency_options, reply_errors);
  }
  rep.run_cpu_s = ProcessCpuSeconds() - run_start;

  if (w.stream) {
    CheckStream(bed, w, rep.sim.stream, *start_bytes, rep.failures);
  } else {
    CheckLatency(bed, w, rep.sim.latency, rep.failures);
    if (reply_errors != 0) {
      rep.failures.push_back(std::to_string(reply_errors) +
                             " replies differed from their request in size or bytes");
    }
  }

  int64_t self_sum = 0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    rep.spans[l] = tracer.totals(static_cast<Layer>(l));
    self_sum += rep.spans[l].self_ns;
  }
  rep.root_ns = tracer.root_ns();
  if (tracer.broken() || self_sum != rep.root_ns) {
    rep.failures.push_back("layer self times do not add up to the root span");
  }
  rep.counts = bed.counts();
  rep.core_utilization = bed.core_utilization();
  return rep;
}

}  // namespace perfbench
