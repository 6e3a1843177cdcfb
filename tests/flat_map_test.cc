// Tests for the open-addressing map behind the per-packet lookups: insert, find and
// erase, probe chains that run through tombstones, growth, and agreement with
// std::unordered_map under random operations.

#include "src/util/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "src/util/rng.h"
#include "src/wire/flow.h"

namespace tcprx {
namespace {

// Every key lands in the same home slot, so keys share one probe chain.
struct CollidingHash {
  size_t operator()(uint32_t) const { return 0; }
};

TEST(FlatMap, InsertFindErase) {
  FlatMap<uint32_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_FALSE(map.Erase(7));

  map.InsertOrAssign(7, 70);
  map.InsertOrAssign(8, 80);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70);
  EXPECT_EQ(*map.Find(8), 80);
  EXPECT_EQ(map.size(), 2u);

  map.InsertOrAssign(7, 71);  // replaces
  EXPECT_EQ(*map.Find(7), 71);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_TRUE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(8), 80);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, TryEmplaceKeepsTheFirstValue) {
  FlatMap<uint32_t, size_t> map;
  const auto [first, inserted] = map.TryEmplace(3, 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*first, 1u);
  const auto [again, reinserted] = map.TryEmplace(3, 2);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(*again, 1u);
}

TEST(FlatMap, ProbeChainsRunThroughTombstones) {
  // Three keys on one chain: erasing the middle one must leave the last findable, and
  // re-inserting it must not duplicate it.
  FlatMap<uint32_t, int, CollidingHash> map;
  map.InsertOrAssign(1, 10);
  map.InsertOrAssign(2, 20);
  map.InsertOrAssign(3, 30);
  EXPECT_TRUE(map.Erase(2));
  EXPECT_EQ(map.Find(2), nullptr);
  ASSERT_NE(map.Find(3), nullptr);
  EXPECT_EQ(*map.Find(3), 30);

  map.InsertOrAssign(3, 31);  // found past the tombstone, not added into it
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.Erase(3));
  EXPECT_EQ(map.Find(3), nullptr);

  map.InsertOrAssign(2, 21);  // re-insert into a freed slot
  EXPECT_EQ(*map.Find(2), 21);
  EXPECT_EQ(*map.Find(1), 10);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, GrowsPastItsLoadFactor) {
  FlatMap<uint32_t, uint32_t> map;
  for (uint32_t k = 0; k < 400; ++k) {
    map.InsertOrAssign(k * 256, k);  // keys that differ only above the low byte
    ASSERT_EQ(map.size(), k + 1);
  }
  for (uint32_t k = 0; k < 400; ++k) {
    ASSERT_NE(map.Find(k * 256), nullptr) << k;
    EXPECT_EQ(*map.Find(k * 256), k);
  }
  EXPECT_EQ(map.Find(1), nullptr);
}

TEST(FlatMap, ChurnOnOneChainStaysBounded) {
  // Insert and erase forever on a colliding chain: tombstones are swept by rehashing,
  // so every probe still ends.
  FlatMap<uint32_t, int, CollidingHash> map;
  map.InsertOrAssign(0, 0);
  for (uint32_t k = 1; k < 2000; ++k) {
    map.InsertOrAssign(k, static_cast<int>(k));
    ASSERT_TRUE(map.Erase(k - 1));
    ASSERT_EQ(map.Find(k - 1), nullptr);
    ASSERT_EQ(*map.Find(k), static_cast<int>(k));
  }
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, AClosedFourTupleCanBeReused) {
  // The demux erases a closed connection's 4-tuple; a later connection on the same
  // tuple must find only itself.
  FlatMap<FlowKey, int, FlowKeyHash> demux;
  FlowKey key;
  key.src_ip = Ipv4Address::FromOctets(10, 0, 1, 2);
  key.dst_ip = Ipv4Address::FromOctets(10, 0, 1, 1);
  key.src_port = 10000;
  key.dst_port = 5001;
  FlowKey other = key;
  other.src_port = 10001;
  demux.InsertOrAssign(key, 1);
  demux.InsertOrAssign(other, 2);
  EXPECT_TRUE(demux.Erase(key));
  EXPECT_EQ(demux.Find(key), nullptr);
  demux.InsertOrAssign(key, 3);
  EXPECT_EQ(*demux.Find(key), 3);
  EXPECT_EQ(*demux.Find(other), 2);
  EXPECT_EQ(demux.size(), 2u);
}

TEST(FlatMap, AgreesWithUnorderedMapUnderRandomOperations) {
  Rng rng(400);
  FlatMap<uint32_t, uint64_t> map;
  std::unordered_map<uint32_t, uint64_t> reference;
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<uint32_t>(rng.NextBelow(300));
    switch (rng.NextBelow(3)) {
      case 0: {
        const uint64_t value = rng.Next();
        map.InsertOrAssign(key, value);
        reference[key] = value;
        break;
      }
      case 1:
        ASSERT_EQ(map.Erase(key), reference.erase(key) == 1) << "op " << op;
        break;
      default: {
        const uint64_t* found = map.Find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << "op " << op;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "op " << op;
        }
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
}

}  // namespace
}  // namespace tcprx
