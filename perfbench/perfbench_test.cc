// Tests of the benchmark itself: span arithmetic, heap counting, the metric set
// against BENCHMARK.json, and seed plumbing. Workloads run on short smoke windows.

#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/alloc_counter.h"
#include "perfbench/metrics.h"
#include "perfbench/runner.h"
#include "perfbench/span_tracer.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using tcprx::SimDuration;

// A clock that returns the scripted times in order.
std::vector<int64_t> g_script;
size_t g_next = 0;
int64_t ScriptedClock() { return g_script.at(g_next++); }

TEST(SpanTracerTest, SelfTimesOfNestedSpansSumToRoot) {
  // loop [0,100] { nic.rx [10,40] { stack.rx [20,30] }  sender [50,70] { link.send [55,60] } }
  g_script = {0, 10, 20, 30, 40, 50, 55, 60, 70, 100};
  g_next = 0;
  SpanTracer tracer(&ScriptedClock);
  tracer.set_enabled(true);
  tracer.Begin(Layer::kLoop);
  tracer.Begin(Layer::kNicRx);
  tracer.Begin(Layer::kStackRx);
  tracer.End();
  tracer.End();
  tracer.Begin(Layer::kSender);
  tracer.Begin(Layer::kLinkSend);
  tracer.End();
  tracer.End();
  tracer.End();

  EXPECT_EQ(tracer.root_ns(), 100);
  EXPECT_EQ(tracer.totals(Layer::kLoop).self_ns, 100 - 30 - 20);
  EXPECT_EQ(tracer.totals(Layer::kNicRx).inclusive_ns, 30);
  EXPECT_EQ(tracer.totals(Layer::kNicRx).self_ns, 20);
  EXPECT_EQ(tracer.totals(Layer::kStackRx).self_ns, 10);
  EXPECT_EQ(tracer.totals(Layer::kSender).self_ns, 15);
  EXPECT_EQ(tracer.totals(Layer::kLinkSend).self_ns, 5);
  int64_t self_sum = 0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    self_sum += tracer.totals(static_cast<Layer>(l)).self_ns;
  }
  EXPECT_EQ(self_sum, tracer.root_ns());
  EXPECT_FALSE(tracer.broken());
}

TEST(SpanTracerTest, RepeatedCallsAccumulate) {
  g_script = {0, 1, 4, 6, 10, 12};
  g_next = 0;
  SpanTracer tracer(&ScriptedClock);
  tracer.set_enabled(true);
  tracer.Begin(Layer::kLoop);
  tracer.Begin(Layer::kNicTx);
  tracer.End();
  tracer.Begin(Layer::kNicTx);
  tracer.End();
  tracer.End();
  EXPECT_EQ(tracer.totals(Layer::kNicTx).calls, 2u);
  EXPECT_EQ(tracer.totals(Layer::kNicTx).self_ns, 3 + 4);
  EXPECT_EQ(tracer.totals(Layer::kLoop).self_ns, 12 - 7);
}

TEST(SpanTracerTest, DisabledTracerRecordsNothing) {
  g_script = {};
  g_next = 0;
  SpanTracer tracer(&ScriptedClock);
  { ScopedSpan span(tracer, Layer::kSender); }
  EXPECT_EQ(tracer.totals(Layer::kSender).calls, 0u);
  EXPECT_EQ(tracer.root_ns(), 0);
}

TEST(SpanTracerTest, UnmatchedEndMarksTraceBroken) {
  g_script = {};
  g_next = 0;
  SpanTracer tracer(&ScriptedClock);
  tracer.End();
  EXPECT_TRUE(tracer.broken());
}

TEST(AllocCounterTest, CountsOnlyWhileEnabled) {
  const AllocCounts before = AllocCountsNow();
  auto untracked = std::make_unique<std::vector<int>>(100);
  EXPECT_EQ(AllocCountsNow().calls, before.calls);

  SetAllocCounting(true);
  auto tracked = std::make_unique<std::vector<int>>(100);
  SetAllocCounting(false);
  const AllocCounts after = AllocCountsNow();
  EXPECT_EQ(after.calls - before.calls, 2u);  // the vector object and its buffer
  EXPECT_EQ(after.bytes - before.bytes, sizeof(std::vector<int>) + 100 * sizeof(int));
}

Workload Smoke(const std::string& name, uint64_t seed) {
  Workload w = *MakeWorkload(name, seed);
  w.stream_options.warmup = SimDuration::FromMillis(30);
  w.stream_options.measure = SimDuration::FromMillis(20);
  w.latency_options.warmup = SimDuration::FromMillis(20);
  w.latency_options.measure = SimDuration::FromMillis(200);
  return w;
}

// name -> unit for one metric list of BENCHMARK.json.
std::map<std::string, std::string> DeclaredMetrics(const std::string& section) {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const size_t begin = json.find("\"" + section + "\"");
  const size_t end = json.find(']', begin);
  EXPECT_NE(begin, std::string::npos) << section;
  const std::string body = json.substr(begin, end - begin);
  std::map<std::string, std::string> out;
  const std::regex entry("\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
  for (std::sregex_iterator it(body.begin(), body.end(), entry), last; it != last; ++it) {
    out[(*it)[1]] = (*it)[2];
  }
  return out;
}

std::map<std::string, std::string> Reported(const std::vector<Metric>& metrics) {
  std::map<std::string, std::string> out;
  for (const Metric& m : metrics) {
    EXPECT_TRUE(out.emplace(m.name, m.unit).second) << "duplicate metric " << m.name;
  }
  return out;
}

class WorkloadSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmokeTest, EveryDeclaredMetricIsReportedWithItsUnit) {
  const Workload w = Smoke(GetParam(), 7);
  const std::vector<UntracedRep> untraced = {RunUntraced(w)};
  const std::vector<TracedRep> traced = {RunTraced(w)};
  EXPECT_TRUE(untraced[0].failures.empty()) << untraced[0].failures.front();
  EXPECT_TRUE(traced[0].failures.empty()) << traced[0].failures.front();
  EXPECT_EQ(Fingerprint(traced[0].sim), Fingerprint(untraced[0].sim));

  const std::vector<Metric> e2e = EndToEndMetrics(w, untraced, {1e-6});
  EXPECT_EQ(Reported(e2e), DeclaredMetrics("end_to_end"));
  for (const Metric& m : e2e) {
    EXPECT_GT(m.value, 0) << m.name;
  }
  EXPECT_EQ(Reported(PerLayerMetrics(w, traced, untraced)), DeclaredMetrics("per_layer"));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmokeTest,
                         ::testing::ValuesIn(WorkloadNames()));

double PerLayer(const Workload& w, const std::string& name) {
  const std::vector<UntracedRep> untraced = {RunUntraced(w)};
  const std::vector<TracedRep> traced = {RunTraced(w)};
  for (const Metric& m : PerLayerMetrics(w, traced, untraced)) {
    if (m.name == name) {
      return m.value;
    }
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

TEST(SeedTest, SeedChangesLossPatternOnLossyWorkload) {
  EXPECT_NE(PerLayer(Smoke("stream_smp4_base_lossy", 1), "tcp.retransmits_per_kpkt"),
            PerLayer(Smoke("stream_smp4_base_lossy", 2), "tcp.retransmits_per_kpkt"));
}

TEST(SeedTest, SeedLeavesLossFreeWorkloadByteIdentical) {
  const TracedRep a = RunTraced(Smoke("stream_up_opt", 1));
  const TracedRep b = RunTraced(Smoke("stream_up_opt", 2));
  EXPECT_EQ(Fingerprint(a.sim), Fingerprint(b.sim));
  EXPECT_EQ(a.counts.Fingerprint(), b.counts.Fingerprint());
}

TEST(WorkloadTest, UnknownNameIsRejected) { EXPECT_FALSE(MakeWorkload("nope", 1)); }

}  // namespace
}  // namespace perfbench
