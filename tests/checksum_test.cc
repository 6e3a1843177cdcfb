// Unit and property tests for the Internet checksum (RFC 1071) and its incremental
// update forms (RFC 1624), which Receive Aggregation and ACK Offload rely on.

#include "src/util/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <variant>
#include <vector>

#include "src/util/byte_order.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace tcprx {
namespace {

using testutil::BytePairFoldedSum;

TEST(Checksum, RfcExampleVector) {
  // Classic example: checksum over 00 01 f2 03 f4 f5 f6 f7.
  const std::vector<uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const uint16_t csum = InternetChecksum(data);
  // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2 -> ~ = 0x220d.
  EXPECT_EQ(csum, 0x220d);
}

TEST(Checksum, EmptyDataIsAllOnes) {
  EXPECT_EQ(InternetChecksum({}), 0xffff);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<uint8_t> data = {0xab};
  // Sum = 0xab00 -> ~ = 0x54ff.
  EXPECT_EQ(InternetChecksum(data), 0x54ff);
}

TEST(Checksum, VerificationFoldsToAllOnes) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    // Even length: checksums live at even offsets in real protocols, and one's
    // complement verification is lane-sensitive.
    std::vector<uint8_t> data(2 + 2 * rng.NextBelow(256));
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    // Append the checksum and verify the extended message folds to 0xffff.
    const uint16_t csum = InternetChecksum(data);
    data.push_back(static_cast<uint8_t>(csum >> 8));
    data.push_back(static_cast<uint8_t>(csum & 0xff));
    ChecksumAccumulator acc;
    acc.Add(data);
    EXPECT_EQ(acc.FoldedSum(), 0xffff) << "trial " << trial;
  }
}

TEST(Checksum, SplitAccumulationMatchesContiguous) {
  // Fragment-chain checksumming: any split of the data must give the same sum,
  // including odd-length splits that shift byte lanes.
  Rng rng(13);
  std::vector<uint8_t> data(333);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const uint16_t whole = InternetChecksum(data);
  for (size_t split1 : {1u, 2u, 63u, 100u, 331u}) {
    for (size_t split2 : {0u, 1u, 7u}) {
      const size_t a = split1;
      const size_t b = std::min(data.size(), split1 + split2);
      ChecksumAccumulator acc;
      acc.Add(std::span<const uint8_t>(data).first(a));
      acc.Add(std::span<const uint8_t>(data).subspan(a, b - a));
      acc.Add(std::span<const uint8_t>(data).subspan(b));
      EXPECT_EQ(acc.Finish(), whole) << "splits " << a << "," << b;
    }
  }
}

TEST(Checksum, IncrementalWordUpdateMatchesRecompute) {
  Rng rng(21);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> data(64);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const uint16_t old_csum = InternetChecksum(data);
    const size_t word_at = 2 * rng.NextBelow(32);
    const uint16_t old_word = LoadBe16(data.data() + word_at);
    const uint16_t new_word = static_cast<uint16_t>(rng.Next());
    StoreBe16(data.data() + word_at, new_word);
    const uint16_t expected = InternetChecksum(data);
    EXPECT_EQ(ChecksumUpdateWord(old_csum, old_word, new_word), expected) << "trial " << trial;
  }
}

TEST(Checksum, IncrementalDwordUpdateMatchesRecompute) {
  Rng rng(22);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> data(128);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const uint16_t old_csum = InternetChecksum(data);
    const size_t at = 4 * rng.NextBelow(32);
    const uint32_t old_dword = LoadBe32(data.data() + at);
    const uint32_t new_dword = static_cast<uint32_t>(rng.Next());
    StoreBe32(data.data() + at, new_dword);
    const uint16_t expected = InternetChecksum(data);
    EXPECT_EQ(ChecksumUpdateDword(old_csum, old_dword, new_dword), expected)
        << "trial " << trial;
  }
}

TEST(Checksum, AddWordMatchesBytePair) {
  ChecksumAccumulator a;
  a.AddWord(0x1234);
  const std::vector<uint8_t> bytes = {0x12, 0x34};
  ChecksumAccumulator b;
  b.Add(bytes);
  EXPECT_EQ(a.Finish(), b.Finish());
}

TEST(Checksum, AddWordAfterOddSpanUsesSwappedLanes) {
  // Regression: AddWord used to ignore the pending odd-byte state, folding the word
  // into the wrong one's-complement lanes after an odd-length Add (RFC 1071
  // section 2(B): a word at an odd byte offset contributes byte-swapped).
  ChecksumAccumulator acc;
  const std::vector<uint8_t> head = {0xab};
  acc.Add(head);
  acc.AddWord(0x1234);
  const std::vector<uint8_t> flat = {0xab, 0x12, 0x34};
  EXPECT_EQ(acc.Finish(), InternetChecksum(flat));

  // Parity is unchanged by the 2-byte insertion: a following span must still start
  // in the low lane.
  ChecksumAccumulator acc2;
  acc2.Add(head);
  acc2.AddWord(0x1234);
  const std::vector<uint8_t> tail = {0x56, 0x78};
  acc2.Add(tail);
  const std::vector<uint8_t> flat2 = {0xab, 0x12, 0x34, 0x56, 0x78};
  EXPECT_EQ(acc2.Finish(), InternetChecksum(flat2));
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t size) {
  std::vector<uint8_t> data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

TEST(Checksum, AddMatchesTheBytePairReference) {
  Rng rng(2000);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<uint8_t> data = RandomBytes(rng, rng.NextBelow(2001));
    ChecksumAccumulator acc;
    acc.Add(data);
    ASSERT_EQ(acc.FoldedSum(), BytePairFoldedSum(data)) << "length " << data.size();
  }
}

TEST(Checksum, RandomOddSplitsMatchTheBytePairReference) {
  // A fragment chain: the data added in pieces of random, mostly odd, lengths.
  Rng rng(2001);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<uint8_t> data = RandomBytes(rng, rng.NextBelow(2001));
    ChecksumAccumulator acc;
    for (size_t at = 0; at < data.size();) {
      const size_t piece = std::min(data.size() - at, 2 * rng.NextBelow(20) + 1);
      acc.Add(std::span(data).subspan(at, piece));
      at += piece;
    }
    ASSERT_EQ(acc.FoldedSum(), BytePairFoldedSum(data)) << "trial " << trial;
  }
}

TEST(Checksum, CarryHeavyDataMatchesTheBytePairReference) {
  // 64 KiB of all-ones words: every 8-byte step after the first carries out of the
  // 64-bit sum.
  const std::vector<uint8_t> data(65536, 0xff);
  ChecksumAccumulator acc;
  acc.Add(data);
  EXPECT_EQ(acc.FoldedSum(), BytePairFoldedSum(data));
}

TEST(Checksum, EveryAddCarriesOutOfTheSixtyFourBitSum) {
  // After eight 0xff bytes the sum is 2^64 - 1, so any nonzero addend carries out of
  // bit 63. One case per place the accumulator adds; a span of bytes is an Add, a
  // lone value an AddWord, which counts as its two bytes in order at any parity.
  using Step = std::variant<std::vector<uint8_t>, uint16_t>;
  const std::vector<uint8_t> ones(8, 0xff);
  const std::vector<std::vector<Step>> cases = {
      {ones, std::vector<uint8_t>{0, 0, 0, 0, 0, 0, 0, 1}},  // the 8-byte step
      {ones, std::vector<uint8_t>{0, 1}},                    // a 2-byte step
      {ones, std::vector<uint8_t>{1}},                       // an odd last byte
      {ones, std::vector<uint8_t>{0}, std::vector<uint8_t>{1}},  // an odd first byte
      {ones, uint16_t{0x0001}},                                  // AddWord
      {ones, std::vector<uint8_t>{0}, uint16_t{0x0100}},         // AddWord, odd offset
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    ChecksumAccumulator acc;
    std::vector<uint8_t> flat;
    for (const Step& step : cases[c]) {
      if (const auto* bytes = std::get_if<std::vector<uint8_t>>(&step)) {
        acc.Add(*bytes);
        flat.insert(flat.end(), bytes->begin(), bytes->end());
      } else {
        const uint16_t word = std::get<uint16_t>(step);
        acc.AddWord(word);
        flat.push_back(static_cast<uint8_t>(word >> 8));
        flat.push_back(static_cast<uint8_t>(word));
      }
    }
    EXPECT_EQ(acc.FoldedSum(), BytePairFoldedSum(flat)) << "case " << c;
  }
}

}  // namespace
}  // namespace tcprx
