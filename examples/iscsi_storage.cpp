// iSCSI-style storage target: the paper's motivating real-world workload
// (section 5.5: "a Storage Area Network using iSCSI, where storage servers have high
// bandwidth processing requirements for transferring (including receiving) large
// files").
//
// Eight initiators stream 256 KiB writes continuously to one storage target over
// four Gigabit links. The target's application layer parses a minimal iSCSI-like framing
// (a 16-byte header carrying an opcode and a data length, followed by the write
// payload) out of the TCP byte stream, so the example exercises a real consumer of
// the delivered bytes — not just a byte sink — on top of the aggregated receive path.

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/testbed.h"
#include "src/util/byte_order.h"

using namespace tcprx;

namespace {

constexpr size_t kHeaderSize = 16;
constexpr uint32_t kOpcodeWrite = 0x01;
constexpr uint32_t kMagic = 0x15C51AB1;

// Parses the byte stream into write commands and counts committed payload bytes.
class IscsiTargetSession {
 public:
  void OnBytes(std::span<const uint8_t> data) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    size_t consumed = 0;
    for (;;) {
      if (remaining_data_ > 0) {
        const size_t take =
            std::min<size_t>(remaining_data_, buffer_.size() - consumed);
        remaining_data_ -= take;
        committed_bytes_ += take;
        consumed += take;
        if (remaining_data_ == 0) {
          ++writes_completed_;
        }
        if (consumed == buffer_.size()) {
          break;
        }
      }
      if (buffer_.size() - consumed < kHeaderSize) {
        break;
      }
      const uint8_t* h = buffer_.data() + consumed;
      const uint32_t magic = LoadBe32(h);
      const uint32_t opcode = LoadBe32(h + 4);
      const uint32_t length = LoadBe32(h + 8);
      if (magic != kMagic || opcode != kOpcodeWrite) {
        ++protocol_errors_;
        buffer_.clear();
        return;
      }
      consumed += kHeaderSize;
      remaining_data_ = length;
    }
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(consumed));
  }

  uint64_t committed_bytes() const { return committed_bytes_; }
  uint64_t writes_completed() const { return writes_completed_; }
  uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t remaining_data_ = 0;
  uint64_t committed_bytes_ = 0;
  uint64_t writes_completed_ = 0;
  uint64_t protocol_errors_ = 0;
};

// Builds one WRITE command: header + `length` payload bytes.
std::vector<uint8_t> MakeWriteCommand(uint32_t length) {
  std::vector<uint8_t> cmd(kHeaderSize + length, 0x5a);
  StoreBe32(cmd.data(), kMagic);
  StoreBe32(cmd.data() + 4, kOpcodeWrite);
  StoreBe32(cmd.data() + 8, length);
  return cmd;
}

struct RunResult {
  double committed_mbps;
  double cpu_utilization;
  uint64_t writes;
  uint64_t errors;
};

RunResult Run(bool optimized) {
  TestbedConfig config;
  config.stack = optimized ? StackConfig::Optimized(SystemType::kNativeUp)
                           : StackConfig::Baseline(SystemType::kNativeUp);
  config.stack.fill_tcp_checksums = false;
  config.num_nics = 4;
  Testbed bed(config);

  // Storage target: one session per accepted connection.
  std::vector<std::shared_ptr<IscsiTargetSession>> sessions;
  bed.stack().Listen(3260, [&](TcpConnection& conn) {
    auto session = std::make_shared<IscsiTargetSession>();
    sessions.push_back(session);
    conn.set_on_data([session](std::span<const uint8_t> data) { session->OnBytes(data); });
  });

  // Initiators: two per link, each issuing a continuous stream of 256 KiB writes.
  // Writes are topped up under back-pressure (at most ~2 MiB queued ahead of the
  // acknowledged point) the way a real initiator's command window works.
  constexpr size_t kInitiatorsPerNic = 2;
  constexpr uint32_t kWriteSize = 256 * 1024;
  struct Initiator {
    TcpConnection* conn;
    uint64_t appended = 0;
  };
  auto initiators = std::make_shared<std::vector<Initiator>>();
  const std::vector<uint8_t> write = MakeWriteCommand(kWriteSize);
  for (size_t nic = 0; nic < bed.num_nics(); ++nic) {
    for (size_t i = 0; i < kInitiatorsPerNic; ++i) {
      TcpConnection* conn = bed.remote(nic).CreateConnection(
          bed.ClientConnectionConfig(nic, static_cast<uint16_t>(40000 + i), 3260));
      initiators->push_back(Initiator{conn});
      conn->Connect();
    }
  }
  std::function<void()> top_up = [&bed, initiators, write, &top_up] {
    for (Initiator& init : *initiators) {
      if (init.conn->state() != TcpState::kEstablished) {
        continue;
      }
      while (init.appended - init.conn->bytes_acked() < 2 * 1024 * 1024) {
        init.conn->Send(write);
        init.appended += write.size();
      }
    }
    bed.loop().ScheduleAfter(SimDuration::FromMillis(2), top_up);
  };
  bed.loop().ScheduleAfter(SimDuration::FromMillis(1), top_up);

  const SimTime warmup = SimTime::FromMillis(200);
  const SimTime end = SimTime::FromMillis(1200);
  bed.loop().RunUntil(warmup);
  const uint64_t busy_before = bed.core(0).busy_cycles();
  uint64_t committed_before = 0;
  for (const auto& s : sessions) {
    committed_before += s->committed_bytes();
  }
  bed.loop().RunUntil(end);

  RunResult result{};
  uint64_t committed_after = 0;
  for (const auto& s : sessions) {
    committed_after += s->committed_bytes();
    result.writes += s->writes_completed();
    result.errors += s->protocol_errors();
  }
  const uint64_t committed = committed_after - committed_before;
  const double seconds = (end - warmup).ToSecondsF();
  result.committed_mbps = static_cast<double>(committed) * 8.0 / seconds / 1e6;
  result.cpu_utilization = static_cast<double>(bed.core(0).busy_cycles() - busy_before) /
                           (3e9 * seconds);
  return result;
}

}  // namespace

int main() {
  std::printf("iSCSI-style storage target: 8 initiators streaming 256 KiB writes\n");
  std::printf("over 4 Gigabit links into one target.\n\n");
  const RunResult baseline = Run(false);
  const RunResult optimized = Run(true);
  std::printf("baseline : %7.0f Mb/s committed, cpu %5.1f%%, %llu writes done, %llu errors\n",
              baseline.committed_mbps, baseline.cpu_utilization * 100,
              static_cast<unsigned long long>(baseline.writes),
              static_cast<unsigned long long>(baseline.errors));
  std::printf("optimized: %7.0f Mb/s committed, cpu %5.1f%%, %llu writes done, %llu errors\n",
              optimized.committed_mbps, optimized.cpu_utilization * 100,
              static_cast<unsigned long long>(optimized.writes),
              static_cast<unsigned long long>(optimized.errors));
  std::printf("\nWith the receive optimizations the same storage workload commits %.0f%%\n",
              (optimized.committed_mbps / baseline.committed_mbps - 1) * 100);
  std::printf("more write bandwidth on the same CPU.\n");
  return 0;
}
