// Tests for the TCP building blocks: Reno congestion control, RTT estimation,
// out-of-order reassembly, and the send stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/tcp/congestion.h"
#include "src/tcp/reassembly.h"
#include "src/tcp/rtt.h"
#include "src/tcp/send_stream.h"
#include "src/util/rng.h"

namespace tcprx {
namespace {

constexpr uint32_t kMss = 1448;

// ---------------------------------------------------------------------------
// RenoController
// ---------------------------------------------------------------------------

TEST(Reno, SlowStartDoublesPerRtt) {
  RenoController reno(kMss, 2);
  EXPECT_EQ(reno.cwnd(), 2 * kMss);
  // One RTT: two full-segment ACKs; each grows cwnd by one MSS.
  reno.OnNewAck(kMss);
  reno.OnNewAck(kMss);
  EXPECT_EQ(reno.cwnd(), 4 * kMss);
}

TEST(Reno, SlowStartByteCounting) {
  RenoController reno(kMss);
  const uint32_t before = reno.cwnd();
  reno.OnNewAck(100);  // partial segment acked: growth limited to bytes acked
  EXPECT_EQ(reno.cwnd(), before + 100);
}

TEST(Reno, CongestionAvoidanceIsLinear) {
  RenoController reno(kMss);
  // Force CA by dropping ssthresh below cwnd via a loss event.
  while (reno.cwnd() < 20 * kMss) {
    reno.OnNewAck(kMss);
  }
  reno.OnDupAck();
  reno.OnDupAck();
  EXPECT_TRUE(reno.OnDupAck());  // third dup: fast retransmit
  reno.OnRecoveryComplete();
  const uint32_t cwnd0 = reno.cwnd();
  EXPECT_EQ(cwnd0, reno.ssthresh());
  // One window's worth of ACKs should add roughly one MSS.
  const uint32_t acks = cwnd0 / kMss;
  for (uint32_t i = 0; i < acks; ++i) {
    reno.OnNewAck(kMss);
  }
  EXPECT_NEAR(static_cast<double>(reno.cwnd()), static_cast<double>(cwnd0 + kMss),
              kMss * 0.25);
}

TEST(Reno, ThirdDupAckTriggersFastRetransmit) {
  RenoController reno(kMss);
  for (int i = 0; i < 10; ++i) {
    reno.OnNewAck(kMss);
  }
  const uint32_t cwnd_before = reno.cwnd();
  EXPECT_FALSE(reno.OnDupAck());
  EXPECT_FALSE(reno.OnDupAck());
  EXPECT_TRUE(reno.OnDupAck());
  EXPECT_TRUE(reno.in_recovery());
  EXPECT_EQ(reno.ssthresh(), cwnd_before / 2);
  EXPECT_EQ(reno.cwnd(), reno.ssthresh() + 3 * kMss);
}

TEST(Reno, RecoveryInflatesPerDupAck) {
  RenoController reno(kMss);
  for (int i = 0; i < 10; ++i) {
    reno.OnNewAck(kMss);
  }
  reno.OnDupAck();
  reno.OnDupAck();
  reno.OnDupAck();
  const uint32_t inflated = reno.cwnd();
  reno.OnDupAck();  // window inflation during recovery
  EXPECT_EQ(reno.cwnd(), inflated + kMss);
  reno.OnRecoveryComplete();
  EXPECT_FALSE(reno.in_recovery());
  EXPECT_EQ(reno.cwnd(), reno.ssthresh());
}

TEST(Reno, TimeoutCollapsesToOneSegment) {
  RenoController reno(kMss);
  for (int i = 0; i < 20; ++i) {
    reno.OnNewAck(kMss);
  }
  const uint32_t before = reno.cwnd();
  reno.OnTimeout();
  EXPECT_EQ(reno.cwnd(), kMss);
  EXPECT_EQ(reno.ssthresh(), before / 2);
  EXPECT_EQ(reno.dup_acks(), 0u);
}

TEST(Reno, CwndNeverBelowOneMss) {
  RenoController reno(kMss, 1);
  reno.OnTimeout();
  reno.OnTimeout();
  EXPECT_GE(reno.cwnd(), kMss);
  EXPECT_GE(reno.ssthresh(), 2 * kMss);
}

TEST(Reno, TraceRecordsEveryChange) {
  RenoController reno(kMss);
  reno.EnableTrace();
  reno.OnNewAck(kMss);
  reno.OnNewAck(kMss);
  reno.OnTimeout();
  ASSERT_EQ(reno.trace().size(), 3u);
  EXPECT_EQ(reno.trace()[0], 3 * kMss);
  EXPECT_EQ(reno.trace()[1], 4 * kMss);
  EXPECT_EQ(reno.trace()[2], kMss);
}

// ---------------------------------------------------------------------------
// RttEstimator
// ---------------------------------------------------------------------------

TEST(Rtt, InitialRtoBeforeSamples) {
  RttEstimator rtt;
  EXPECT_FALSE(rtt.HasSample());
  EXPECT_EQ(rtt.Rto(), RttEstimator::kInitialRto);
}

TEST(Rtt, FirstSampleInitializes) {
  RttEstimator rtt;
  rtt.AddSample(SimDuration::FromMillis(100));
  EXPECT_TRUE(rtt.HasSample());
  EXPECT_EQ(rtt.Srtt(), SimDuration::FromMillis(100));
  // RTO = srtt + 4 * rttvar = 100 + 4*50 = 300 ms.
  EXPECT_EQ(rtt.Rto(), SimDuration::FromMillis(300));
}

TEST(Rtt, EwmaConvergesTowardSteadyRtt) {
  RttEstimator rtt;
  for (int i = 0; i < 50; ++i) {
    rtt.AddSample(SimDuration::FromMillis(80));
  }
  EXPECT_NEAR(static_cast<double>(rtt.Srtt().nanos()), 80e6, 1e6);
}

TEST(Rtt, RtoClampedToMinimum) {
  RttEstimator rtt;
  for (int i = 0; i < 20; ++i) {
    rtt.AddSample(SimDuration::FromMicros(100));  // LAN RTT
  }
  // On a LAN path the variance floor dominates: RTO = srtt + kRttVarFloor, and it
  // must never fall below kMinRto.
  EXPECT_GE(rtt.Rto(), RttEstimator::kMinRto);
  EXPECT_EQ(rtt.Rto(), SimDuration::FromMicros(100) + RttEstimator::kRttVarFloor);
}

TEST(Rtt, LongRttJitterFreePathKeepsVarianceFloor) {
  // Regression: without the RFC 6298 max(G, K*RTTVAR) floor, RTTVAR decays toward
  // zero on a jitter-free path and RTO collapses onto SRTT, so a 300 ms path
  // spuriously retransmits whenever the peer holds one ACK back for its delayed-ACK
  // timer. The floored RTO must stay a full kMinRto above SRTT.
  RttEstimator rtt;
  for (int i = 0; i < 100; ++i) {
    rtt.AddSample(SimDuration::FromMillis(300));
  }
  EXPECT_EQ(rtt.Srtt(), SimDuration::FromMillis(300));
  EXPECT_EQ(rtt.Rto(), SimDuration::FromMillis(300) + RttEstimator::kRttVarFloor);
}

TEST(Rtt, RtoClampedToMaximum) {
  RttEstimator rtt;
  rtt.AddSample(SimDuration::FromSeconds(100));
  EXPECT_EQ(rtt.Rto(), RttEstimator::kMaxRto);
}

// ---------------------------------------------------------------------------
// ReassemblyQueue
// ---------------------------------------------------------------------------

TEST(Reassembly, PopsContiguousRun) {
  ReassemblyQueue q;
  q.Insert(100, {1, 2, 3});
  q.Insert(103, {4, 5});
  std::vector<uint8_t> out;
  EXPECT_EQ(q.PopInOrder(100, out), 5u);
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(q.Empty());
}

TEST(Reassembly, HoleBlocksPop) {
  ReassemblyQueue q;
  q.Insert(100, {1, 2});
  q.Insert(105, {9});
  std::vector<uint8_t> out;
  EXPECT_EQ(q.PopInOrder(100, out), 2u);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(q.SegmentCount(), 1u);  // the 105 segment waits
  q.Insert(102, {3, 4, 5});
  out.clear();
  EXPECT_EQ(q.PopInOrder(102, out), 4u);
  EXPECT_EQ(out, (std::vector<uint8_t>{3, 4, 5, 9}));
}

TEST(Reassembly, DuplicateFullyCoveredIsIgnored) {
  ReassemblyQueue q;
  q.Insert(10, {1, 2, 3, 4});
  q.Insert(11, {2, 3});  // inside existing
  EXPECT_EQ(q.BufferedBytes(), 4u);
  EXPECT_EQ(q.SegmentCount(), 1u);
}

TEST(Reassembly, HeadOverlapTrimmed) {
  ReassemblyQueue q;
  q.Insert(10, {1, 2, 3});
  q.Insert(12, {3, 4, 5});  // overlaps byte 12
  std::vector<uint8_t> out;
  EXPECT_EQ(q.PopInOrder(10, out), 5u);
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Reassembly, TailOverlapAbsorbsCoveredSegment) {
  ReassemblyQueue q;
  q.Insert(14, {5, 6});
  q.Insert(10, {1, 2, 3, 4, 5, 6});  // fully covers the existing segment
  EXPECT_EQ(q.SegmentCount(), 1u);   // absorbed, not duplicated
  std::vector<uint8_t> out;
  EXPECT_EQ(q.PopInOrder(10, out), 6u);
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST(Reassembly, TailOverlapTrimsAgainstLongerSuccessor) {
  ReassemblyQueue q;
  q.Insert(14, {5, 6, 7, 8});        // extends past the new data's end
  q.Insert(10, {1, 2, 3, 4, 9, 9});  // tail overlap: new data trimmed at 14
  std::vector<uint8_t> out;
  EXPECT_EQ(q.PopInOrder(10, out), 8u);
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Reassembly, PopStartingInsideSegment) {
  ReassemblyQueue q;
  q.Insert(10, {1, 2, 3, 4});
  std::vector<uint8_t> out;
  // Retransmission advanced rcv_nxt into the middle of a buffered segment.
  EXPECT_EQ(q.PopInOrder(12, out), 2u);
  EXPECT_EQ(out, (std::vector<uint8_t>{3, 4}));
}

TEST(Reassembly, DropBelowDiscardsStale) {
  ReassemblyQueue q;
  q.Insert(10, {1, 2});
  q.Insert(20, {3, 4});
  q.DropBelow(15);
  EXPECT_EQ(q.SegmentCount(), 1u);
  EXPECT_EQ(q.BufferedBytes(), 2u);
}

TEST(Reassembly, RandomizedStreamProperty) {
  // Chop a known byte stream into random segments, insert them in random order (with
  // duplicates), and verify the queue reproduces the exact stream.
  Rng rng(44);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint8_t> stream(2000);
    for (auto& b : stream) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> segments;
    size_t at = 0;
    while (at < stream.size()) {
      const size_t len = 1 + rng.NextBelow(200);
      const size_t end = std::min(stream.size(), at + len);
      segments.emplace_back(
          1000 + at, std::vector<uint8_t>(stream.begin() + static_cast<long>(at),
                                          stream.begin() + static_cast<long>(end)));
      at = end;
    }
    // Shuffle and add duplicates.
    for (size_t i = segments.size(); i > 1; --i) {
      std::swap(segments[i - 1], segments[rng.NextBelow(i)]);
    }
    ReassemblyQueue q;
    for (const auto& [seq, data] : segments) {
      q.Insert(seq, data);
      if (rng.NextBool(0.3)) {
        q.Insert(seq, data);  // duplicate insert
      }
    }
    std::vector<uint8_t> out;
    EXPECT_EQ(q.PopInOrder(1000, out), stream.size()) << "trial " << trial;
    EXPECT_EQ(out, stream) << "trial " << trial;
    EXPECT_TRUE(q.Empty());
    EXPECT_EQ(q.BufferedBytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// SendStream
// ---------------------------------------------------------------------------

TEST(SendStream, AppendAndCopyOut) {
  SendStream s;
  const std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  s.Append(data);
  EXPECT_EQ(s.EndOffset(), 5u);
  EXPECT_EQ(s.AvailableFrom(0), 5u);
  EXPECT_EQ(s.AvailableFrom(3), 2u);
  EXPECT_EQ(s.AvailableFrom(7), 0u);
  std::vector<uint8_t> out(3);
  s.CopyOut(1, out);
  EXPECT_EQ(out, (std::vector<uint8_t>{2, 3, 4}));
}

TEST(SendStream, ReleaseFreesPrefix) {
  SendStream s;
  s.Append(std::vector<uint8_t>(100, 7));
  s.ReleaseThrough(60);
  EXPECT_EQ(s.released_offset(), 60u);
  std::vector<uint8_t> out(40);
  s.CopyOut(60, out);  // still readable
  EXPECT_EQ(out[0], 7);
  // Re-releasing earlier offsets is a no-op.
  s.ReleaseThrough(10);
  EXPECT_EQ(s.released_offset(), 60u);
}

TEST(SendStream, SyntheticPatternIsDeterministic) {
  SendStream s;
  s.SetSynthetic(1'000'000);
  std::vector<uint8_t> a(64);
  std::vector<uint8_t> b(64);
  s.CopyOut(500, a);
  s.CopyOut(500, b);
  EXPECT_EQ(a, b);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a[i], SendStream::PatternByte(500 + i));
  }
}

TEST(SendStream, SyntheticReleaseUsesNoMemory) {
  SendStream s;
  s.SetSynthetic(UINT64_MAX / 2);
  EXPECT_GT(s.AvailableFrom(1'000'000'000'000ull), 0u);
  s.ReleaseThrough(1'000'000'000ull);
  EXPECT_EQ(s.released_offset(), 1'000'000'000ull);
}

TEST(SendStreamDeathTest, MixingSyntheticAndExplicitAborts) {
  SendStream s;
  s.SetSynthetic(100);
  EXPECT_DEATH(s.Append(std::vector<uint8_t>{1}), "synthetic");
}

TEST(SendStreamDeathTest, ReadPastEndAborts) {
  SendStream s;
  s.Append(std::vector<uint8_t>(10, 0));
  std::vector<uint8_t> out(5);
  EXPECT_DEATH(s.CopyOut(8, out), "past end");
}

TEST(SendStreamDeathTest, ReadReleasedAborts) {
  SendStream s;
  s.Append(std::vector<uint8_t>(10, 0));
  s.ReleaseThrough(5);
  std::vector<uint8_t> out(2);
  EXPECT_DEATH(s.CopyOut(2, out), "released");
}

TEST(SendStream, PatternByteCoversAllValues) {
  // The pattern should not be degenerate: all 256 byte values appear in a small
  // window.
  bool seen[256] = {};
  int distinct = 0;
  for (uint64_t i = 0; i < 4096 && distinct < 256; ++i) {
    const uint8_t b = SendStream::PatternByte(i);
    if (!seen[b]) {
      seen[b] = true;
      ++distinct;
    }
  }
  EXPECT_EQ(distinct, 256);
}

// The hash the pattern used before it became periodic; the first period still
// holds exactly these bytes.
uint8_t UnperiodicPatternByte(uint64_t offset) {
  uint64_t x = offset * 0x9e3779b97f4a7c15ull;
  x ^= x >> 32;
  return static_cast<uint8_t>(x);
}

TEST(SendStreamPattern, FirstPeriodIsTheHashAndRepeats) {
  for (uint64_t o = 0; o < kPatternPeriod; ++o) {
    ASSERT_EQ(SendStream::PatternByte(o), UnperiodicPatternByte(o)) << o;
    ASSERT_EQ(SendStream::PatternByte(o + kPatternPeriod), SendStream::PatternByte(o)) << o;
  }
}

// Shifts d for which the `window` bytes at `at` equal the bytes at `at + d`, over every
// shift up to 4 x 64 KiB and a 32-bit sequence wrap.
std::vector<uint64_t> AliasingShifts(uint64_t at, size_t window) {
  SendStream s;
  s.SetSynthetic(UINT64_MAX / 2);
  std::vector<uint64_t> shifts;
  for (uint64_t d = 1; d <= 4 * 65536; ++d) {
    shifts.push_back(d);
  }
  shifts.push_back(uint64_t{1} << 32);
  const std::span<const uint8_t> bytes = s.View(at, window);
  std::vector<uint64_t> aliasing;
  for (const uint64_t d : shifts) {
    const std::span<const uint8_t> shifted = s.View(at + d, window);
    if (std::equal(bytes.begin(), bytes.end(), shifted.begin())) {
      aliasing.push_back(d);
    }
  }
  return aliasing;
}

TEST(SendStreamPattern, ShiftedWindowsDiffer) {
  // The oracles catch a delivery shifted by d only if the shifted bytes differ. The
  // period keeps every shift below 4 x 64 KiB apart from the unshifted bytes; the
  // hash itself (unchanged from the unperiodic pattern) lets a 64-byte window alias
  // at two shifts at offset 10^9, as the unperiodic hash does at two other shifts
  // there. A 256-byte window, shorter than an MTU segment, never aliases.
  constexpr uint64_t kFar = 1'000'000'000;
  EXPECT_EQ(AliasingShifts(0, 64), std::vector<uint64_t>{});
  EXPECT_EQ(AliasingShifts(kPatternPeriod - 32, 64), std::vector<uint64_t>{});
  EXPECT_EQ(AliasingShifts(kFar, 64), (std::vector<uint64_t>{23168, 100483}));
  for (const uint64_t at : {uint64_t{0}, kPatternPeriod - 32, kFar}) {
    EXPECT_EQ(AliasingShifts(at, 256), std::vector<uint64_t>{}) << "offset " << at;
  }
}

TEST(SendStreamPattern, ViewAndCopyOutCrossThePeriod) {
  SendStream s;
  s.SetSynthetic(UINT64_MAX / 2);
  for (const size_t len : {size_t{1}, size_t{1448}, size_t{8948}, size_t{65535}}) {
    for (const uint64_t at : {kPatternPeriod - len / 2, kPatternPeriod - 1,
                              3 * kPatternPeriod - len, (uint64_t{1} << 32) - 7}) {
      const std::span<const uint8_t> view = s.View(at, len);
      std::vector<uint8_t> copy(len);
      s.CopyOut(at, copy);
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(view[i], SendStream::PatternByte(at + i)) << at << "+" << i;
        ASSERT_EQ(copy[i], view[i]) << at << "+" << i;
      }
    }
  }
}

TEST(SendStreamDeathTest, SyntheticViewLongerThanTheTableAborts) {
  SendStream s;
  s.SetSynthetic(UINT64_MAX / 2);
  EXPECT_DEATH(s.View(0, kMaxPatternView + 1), "kMaxPatternView");
}

TEST(SendStream, ExplicitReadsSurviveCompaction) {
  SendStream s;
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  s.Append(data);
  s.ReleaseThrough(100);  // a small release keeps the prefix
  s.ReleaseThrough(600);  // past half: the released prefix is erased
  s.Append(data);
  s.ReleaseThrough(1100);
  const std::span<const uint8_t> view = s.View(1100, 900);
  std::vector<uint8_t> copy(900);
  s.CopyOut(1100, copy);
  for (uint64_t o = 1100; o < 2000; ++o) {
    const uint8_t want = static_cast<uint8_t>((o % 1000) * 7);
    ASSERT_EQ(view[o - 1100], want) << o;
    ASSERT_EQ(copy[o - 1100], want) << o;
  }
  s.ReleaseThrough(2000);
  EXPECT_EQ(s.AvailableFrom(2000), 0u);
}

}  // namespace
}  // namespace tcprx
