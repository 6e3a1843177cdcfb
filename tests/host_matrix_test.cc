// Golden host matrix: short stream, lossy-stream and latency runs of every system
// preset ({up, smp, xen} x {baseline, optimized}), a corrupting stream on the UP
// optimized stack, and the multi-core steering cases (4 cores with RSS, 4 cores
// without, 1 core without), every StreamResult and
// LatencyResult field (of routine_cycles, every non-zero routine) compared exactly
// against tests/golden/host_matrix.txt.
//
// The file pins the receive host's simulated behaviour, so a refactor of the host
// (how Testbed wires cores, drivers, NIC queues and stack shards) must leave every
// value bit-for-bit unchanged. Values are stored as %.17g, which round-trips a
// double exactly.
//
// After an intentional behaviour change, regenerate the file with
//   TCPRX_UPDATE_GOLDEN=1 ./build/tests/host_matrix_test
// and review the diff.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/testbed.h"

namespace tcprx {
namespace {

constexpr const char* kGoldenPath = TCPRX_SOURCE_DIR "/tests/golden/host_matrix.txt";

// "<run> <field>" -> value, in the order the runs produce them.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

void AddStream(const std::string& run, const StreamResult& r, Fields& out) {
  const auto add = [&](const std::string& field, const std::string& value) {
    out.emplace_back(run + " " + field, value);
  };
  add("throughput_mbps", Num(r.throughput_mbps));
  add("cpu_utilization", Num(r.cpu_utilization));
  add("cpu_scaled_mbps", Num(r.cpu_scaled_mbps));
  for (size_t c = 0; c < kCostCategoryCount; ++c) {
    add(std::string("cycles_per_packet.") + CostCategoryName(static_cast<CostCategory>(c)),
        Num(r.cycles_per_packet[c]));
  }
  add("total_cycles_per_packet", Num(r.total_cycles_per_packet));
  for (size_t i = 0; i < kRoutineCount; ++i) {
    if (r.routine_cycles[i] > 0) {
      add("routine_cycles." + std::string(kRoutineTable[i].name), Num(r.routine_cycles[i]));
    }
  }
  add("data_packets", Num(r.data_packets));
  add("host_packets", Num(r.host_packets));
  add("avg_aggregation", Num(r.avg_aggregation));
  add("acks_on_wire", Num(r.acks_on_wire));
  add("ack_templates", Num(r.ack_templates));
  add("nic_drops", Num(r.nic_drops));
  add("retransmits", Num(r.retransmits));
  add("num_cores", Num(static_cast<uint64_t>(r.per_core_utilization.size())));
  for (size_t c = 0; c < r.per_core_utilization.size(); ++c) {
    add("per_core_utilization." + std::to_string(c), Num(r.per_core_utilization[c]));
  }
  add("load_imbalance", Num(r.load_imbalance));
  add("intercore_transfers", Num(r.intercore_transfers));
  add("misdirected_packets", Num(r.misdirected_packets));
  add("backlog_drops", Num(r.backlog_drops));
}

void AddLatency(const std::string& run, const LatencyResult& r, Fields& out) {
  const auto add = [&](const std::string& field, const std::string& value) {
    out.emplace_back(run + " " + field, value);
  };
  add("transactions_per_sec", Num(r.transactions_per_sec));
  add("transactions", Num(r.transactions));
  add("p50_us", Num(r.p50_us));
  add("p99_us", Num(r.p99_us));
  add("max_us", Num(r.max_us));
}

Testbed::StreamOptions ShortStream(size_t connections_per_nic) {
  Testbed::StreamOptions options;
  options.connections_per_nic = connections_per_nic;
  options.warmup = SimDuration::FromMillis(40);
  options.measure = SimDuration::FromMillis(40);
  return options;
}

Fields RunMatrix() {
  Fields out;
  const std::pair<const char*, SystemType> systems[] = {
      {"up", SystemType::kNativeUp},
      {"smp", SystemType::kNativeSmp},
      {"xen", SystemType::kXenGuest},
  };
  for (const auto& [system_name, system] : systems) {
    for (const bool optimized : {false, true}) {
      const std::string preset =
          std::string(system_name) + (optimized ? "/optimized" : "/baseline");
      TestbedConfig config;
      config.stack = optimized ? StackConfig::Optimized(system) : StackConfig::Baseline(system);
      {
        Testbed bed(config);
        AddStream("stream/" + preset, bed.RunStream(ShortStream(1)), out);
      }
      {
        TestbedConfig lossy = config;
        LinkConfig link = lossy.link;
        link.drop_probability = 0.002;
        link.reorder_probability = 0.002;
        link.fault_seed = 17;
        lossy.client_to_server_link = link;
        Testbed bed(lossy);
        AddStream("lossy/" + preset, bed.RunStream(ShortStream(2)), out);
      }
      {
        TestbedConfig latency = config;
        latency.num_nics = 1;
        Testbed bed(latency);
        Testbed::LatencyOptions options;
        options.warmup = SimDuration::FromMillis(20);
        options.measure = SimDuration::FromMillis(40);
        AddLatency("latency/" + preset, bed.RunLatency(options), out);
      }
    }
  }

  // Corruption on the optimized stack, with zero TCP checksums (tcprx_sim's default),
  // which the NIC trusts: some flipped bits land where the host can no longer parse
  // the frame, which the stack drops before any sk_buff exists.
  {
    TestbedConfig config;
    config.stack = StackConfig::Optimized(SystemType::kNativeUp);
    config.stack.fill_tcp_checksums = false;
    LinkConfig link = config.link;
    link.corrupt_probability = 0.05;
    link.fault_seed = 11;
    config.client_to_server_link = link;
    Testbed bed(config);
    AddStream("corrupt/up/optimized", bed.RunStream(ShortStream(1)), out);
  }

  // Multi-core steering: hardware RSS, software steering, and software steering on
  // a single core (where no frame can be misdirected).
  const struct {
    const char* name;
    size_t cores;
    bool rss;
  } smp_cases[] = {
      {"smp4_rss", 4, true},
      {"smp4_norss", 4, false},
      {"smp1_norss", 1, false},
  };
  for (const auto& c : smp_cases) {
    TestbedConfig config;
    config.stack = StackConfig::Baseline(SystemType::kNativeSmp);
    config.link.bits_per_second = 10'000'000'000;
    config.smp.num_cores = c.cores;
    config.smp.rss.enabled = c.rss;
    Testbed bed(config);
    AddStream(std::string("stream/") + c.name, bed.RunStream(ShortStream(4)), out);
  }
  return out;
}

TEST(HostMatrix, EveryRunMatchesTheGoldenFile) {
  const Fields measured = RunMatrix();

  if (std::getenv("TCPRX_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(kGoldenPath);
    ASSERT_TRUE(file.good()) << "cannot write " << kGoldenPath;
    for (const auto& [key, value] : measured) {
      file << key << " " << value << "\n";
    }
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }

  std::ifstream file(kGoldenPath);
  ASSERT_TRUE(file.good()) << "cannot read " << kGoldenPath;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(file, line)) {
    std::istringstream fields(line);
    std::string run;
    std::string field;
    std::string value;
    fields >> run >> field >> value;
    golden[run + " " + field] = value;
  }

  EXPECT_EQ(measured.size(), golden.size()) << "golden file has a different field set";
  for (const auto& [key, value] : measured) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "missing from golden file: " << key;
      continue;
    }
    EXPECT_EQ(value, it->second) << key;
  }
}

}  // namespace
}  // namespace tcprx
