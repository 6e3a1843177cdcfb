// Tests for the testbed's configuration boundary (ConfigErrors, src/sim/testbed.h):
// each bad field gives exactly its one message, the largest good values give none,
// and a Testbed refuses a bad configuration with the message.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/sim/testbed.h"

namespace tcprx {
namespace {

using Errors = std::vector<std::string>;

TEST(ConfigErrors, DefaultsAreValid) {
  const TestbedConfig config;
  EXPECT_EQ(ConfigErrors(config), Errors{});
  EXPECT_EQ(ConfigErrors(config, Testbed::StreamOptions{}), Errors{});
  EXPECT_EQ(ConfigErrors(config, Testbed::LatencyOptions{}), Errors{});
  EXPECT_EQ(ConfigErrors(config, Testbed::TransferOptions{}), Errors{});
}

LinkConfig& DataLink(TestbedConfig& config) {
  if (!config.client_to_server_link) {
    config.client_to_server_link = LinkConfig{};
  }
  return *config.client_to_server_link;
}

struct BadField {
  const char* message;
  std::function<void(TestbedConfig&, Testbed::StreamOptions&)> spoil;
};

TEST(ConfigErrors, EachBadFieldGivesItsMessage) {
  using Options = Testbed::StreamOptions;
  const BadField cases[] = {
      {"--cores must be between 1 and 128", [](TestbedConfig& c, Options&) { c.smp.num_cores = 0; }},
      {"--cores must be between 1 and 128",
       [](TestbedConfig& c, Options&) { c.smp.num_cores = 129; }},
      {"--limit must be >= 1",
       [](TestbedConfig& c, Options&) { c.stack.aggregation_limit = 0; }},
      {"--nics must be between 1 and 256", [](TestbedConfig& c, Options&) { c.num_nics = 0; }},
      {"--nics must be between 1 and 256",
       [](TestbedConfig& c, Options&) { c.num_nics = 257; }},
      {"--drop must be between 0 and 1",
       [](TestbedConfig& c, Options&) { c.link.drop_probability = 1.5; }},
      {"--reorder must be between 0 and 1",
       [](TestbedConfig& c, Options&) { DataLink(c).reorder_probability = -0.1; }},
      {"--duplicate must be between 0 and 1",
       [](TestbedConfig& c, Options&) {
         c.link.duplicate_probability = std::numeric_limits<double>::quiet_NaN();
       }},
      {"--corrupt must be between 0 and 1",
       [](TestbedConfig& c, Options&) { DataLink(c).corrupt_probability = 2; }},
      {"--burst-drop-length must be at most --burst-drop-period",
       [](TestbedConfig& c, Options&) {
         DataLink(c).burst_drop_period = 3;
         DataLink(c).burst_drop_length = 5;
       }},
      {"--burst-drop-length must be at most --burst-drop-period",
       [](TestbedConfig& c, Options&) { c.link.burst_drop_length = 2; }},
      {"TestbedConfig.nic.num_rx_queues must be 1: set by --cores",
       [](TestbedConfig& c, Options&) { c.nic.num_rx_queues = 4; }},
      {"TestbedConfig.nic.num_rx_queues must be 1: set by --cores",
       [](TestbedConfig& c, Options&) { c.nic.num_rx_queues = 0; }},
      {"TestbedConfig.nic.rss must be left default: set by --no-rss",
       [](TestbedConfig& c, Options&) { c.nic.rss.enabled = false; }},
      {"TestbedConfig.link.bits_per_second must be >= 1",
       [](TestbedConfig& c, Options&) { c.link.bits_per_second = 0; }},
      {"TestbedConfig.client_to_server_link.bits_per_second must be >= 1",
       [](TestbedConfig& c, Options&) { DataLink(c).bits_per_second = 0; }},
      {"--conns-per-nic must be >= 1",
       [](TestbedConfig&, Options& o) { o.connections_per_nic = 0; }},
      {"--conns-per-nic must be at most 55536",
       [](TestbedConfig&, Options& o) { o.connections_per_nic = 55537; }},
      {"--mss must be between 1 and 65455", [](TestbedConfig&, Options& o) { o.client_mss = 0; }},
      {"--mss must be between 1 and 65455",
       [](TestbedConfig&, Options& o) { o.client_mss = 65456; }},
      {"--measure-ms must be >= 1",
       [](TestbedConfig&, Options& o) { o.measure = SimDuration::FromNanos(0); }},
      {"--warmup-ms plus --measure-ms must fit 64 bits of nanoseconds",
       [](TestbedConfig&, Options& o) {
         o.warmup = SimDuration::FromNanos(std::numeric_limits<uint64_t>::max());
       }},
  };
  for (const BadField& bad : cases) {
    TestbedConfig config;
    Options options;
    bad.spoil(config, options);
    EXPECT_EQ(ConfigErrors(config, options), Errors{bad.message});
  }
}

TEST(ConfigErrors, TheLargestValuesPass) {
  TestbedConfig config;
  config.num_nics = 256;
  config.smp.num_cores = 128;
  config.link.drop_probability = 1;
  DataLink(config).corrupt_probability = 0;
  DataLink(config).burst_drop_period = 4;
  DataLink(config).burst_drop_length = 4;
  Testbed::StreamOptions options;
  options.connections_per_nic = 55536;
  options.client_mss = 65455;
  options.warmup = SimDuration::FromNanos(1);
  options.measure = SimDuration::FromNanos(std::numeric_limits<uint64_t>::max() - 1);
  EXPECT_EQ(ConfigErrors(config, options), Errors{});
}

TEST(ConfigErrors, EveryViolationIsListedConfigFirst) {
  TestbedConfig config;
  config.smp.num_cores = 0;
  Testbed::LatencyOptions latency;
  latency.measure = SimDuration::FromNanos(0);
  EXPECT_EQ(ConfigErrors(config, latency),
            (Errors{"--cores must be between 1 and 128", "--measure-ms must be >= 1"}));
  Testbed::StreamOptions stream;
  stream.client_mss = 70000;
  EXPECT_EQ(ConfigErrors(config, stream),
            (Errors{"--cores must be between 1 and 128", "--mss must be between 1 and 65455"}));
}

TEST(ConfigErrors, LatencyRefusesAnEmptyMessage) {
  Testbed::LatencyOptions options;
  options.message_size = 0;
  EXPECT_EQ(ConfigErrors(TestbedConfig{}, options),
            Errors{"LatencyOptions.message_size must be >= 1"});
}

TEST(ConfigErrors, TransferBoundsFlowsAndMss) {
  Testbed::TransferOptions options;
  options.flows = 0;
  options.client_mss = 65456;
  EXPECT_EQ(ConfigErrors(TestbedConfig{}, options),
            (Errors{"TransferOptions.flows must be between 1 and 55536",
                    "TransferOptions.client_mss must be between 1 and 65455"}));
  options.flows = 55536;
  options.client_mss = 65455;
  EXPECT_EQ(ConfigErrors(TestbedConfig{}, options), Errors{});
}

TEST(TestbedDeathTest, RefusesABadConfigWithItsMessage) {
  TestbedConfig config;
  config.num_nics = 300;
  EXPECT_DEATH(Testbed bed(config), "--nics must be between 1 and 256");
}

TEST(TestbedDeathTest, RefusesBadOptionsWithTheirMessage) {
  TestbedConfig config;
  config.num_nics = 1;
  Testbed bed(config);
  Testbed::StreamOptions options;
  options.client_mss = 70000;
  EXPECT_DEATH(bed.RunStream(options), "--mss must be between 1 and 65455");
}

TEST(TestbedDeathTest, TransferRefusesABadMss) {
  TestbedConfig config;
  config.num_nics = 1;
  Testbed bed(config);
  Testbed::TransferOptions options;
  options.client_mss = 0;
  EXPECT_DEATH(bed.RunTransfer(options),
               "TransferOptions.client_mss must be between 1 and 65455");
}

}  // namespace
}  // namespace tcprx
