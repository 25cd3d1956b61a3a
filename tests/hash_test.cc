#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "hash/bucket_chain_table.h"
#include "hash/entry.h"
#include "hash/hash_fn.h"
#include "hash/linear_table.h"
#include "util/random.h"

namespace triton::hash {
namespace {

TEST(HashFnTest, MultiplyShiftMixesHighBits) {
  // Successive keys must not map to successive top bits.
  std::vector<int> buckets(64, 0);
  for (uint64_t k = 1; k <= 64000; ++k) {
    ++buckets[HashBits(MultiplyShift(k), 0, 6)];
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_NEAR(buckets[b], 1000, 300) << "bucket " << b;
  }
}

TEST(HashFnTest, DisjointBitRangesAreIndependent) {
  // Fix a first-pass partition and check second-pass bits still spread.
  std::vector<int> buckets(16, 0);
  int kept = 0;
  for (uint64_t k = 1; k <= 400000; ++k) {
    uint64_t h = MultiplyShift(k);
    if (HashBits(h, 0, 4) != 3) continue;  // one first-pass partition
    ++kept;
    ++buckets[HashBits(h, 4, 4)];
  }
  ASSERT_GT(kept, 10000);
  for (int b = 0; b < 16; ++b) {
    EXPECT_NEAR(buckets[b], kept / 16.0, kept / 16.0 * 0.25) << b;
  }
}

TEST(HashFnTest, RadixPartitionInRange) {
  for (uint64_t k = 1; k < 1000; ++k) {
    EXPECT_LT(RadixPartition(k, 0, 9), 512u);
    EXPECT_LT(RadixPartition(k, 9, 6), 64u);
  }
}

TEST(HashFnTest, ZeroBitsIsZero) {
  EXPECT_EQ(HashBits(MultiplyShift(77), 0, 0), 0u);
}

TEST(LinearTableTest, CapacityIsPowerOfTwoAtHalfLoad) {
  EXPECT_EQ(LinearTable::CapacityFor(1000), 2048u);
  EXPECT_EQ(LinearTable::CapacityFor(1024), 2048u);
  EXPECT_EQ(LinearTable::CapacityFor(1025), 4096u);
}

// The no-partitioning join's linear-probing loops walk SlotOf/NextSlot
// over a zeroed slot array. At exactly 50% load, an insert walk to the
// first empty slot and a probe walk to the key round-trip every key in
// short chains, and an absent key's walk stops at an empty slot.
TEST(LinearTableTest, InsertProbeRoundTrip) {
  const uint64_t n = 4096;
  const uint64_t cap = LinearTable::CapacityFor(n);
  ASSERT_EQ(cap, 2 * n);
  const LinearTable t(cap);
  EXPECT_EQ(t.NextSlot(cap - 1), 0u);
  std::vector<Entry> slots(cap);
  util::Rng rng(5);
  std::map<int64_t, int64_t> ref;
  while (ref.size() < n) {
    const int64_t k = static_cast<int64_t>(rng.NextBounded(1 << 30)) + 1;
    if (!ref.emplace(k, k * 3).second) continue;
    uint64_t slot = t.SlotOf(k);
    ASSERT_LT(slot, cap);
    while (slots[slot].key != 0) slot = t.NextSlot(slot);
    slots[slot] = {k, k * 3};
  }
  uint64_t touches = 0;
  for (const auto& [k, v] : ref) {
    uint64_t slot = t.SlotOf(k);
    for (++touches; slots[slot].key != k; ++touches) {
      ASSERT_NE(slots[slot].key, 0) << "key " << k << " not found";
      slot = t.NextSlot(slot);
    }
    EXPECT_EQ(slots[slot].value, v);
  }
  // Successful probes average about 1.5 slots at 50% load.
  EXPECT_LT(touches, 3 * n);
  uint64_t slot = t.SlotOf(-7);
  for (uint64_t walked = 0; slots[slot].key != 0; ++walked) {
    ASSERT_NE(slots[slot].key, -7);
    ASSERT_LT(walked, cap);
    slot = t.NextSlot(slot);
  }
}

// Every successful probe walk touches its home slot at least once, and
// at 50% load the chains over dense keys 1..100 stay short.
TEST(LinearTableTest, ProbeTouchesAtLeastOneSlot) {
  const uint64_t cap = LinearTable::CapacityFor(100);
  const LinearTable t(cap);
  std::vector<Entry> slots(cap);
  for (int64_t k = 1; k <= 100; ++k) {
    uint64_t slot = t.SlotOf(k);
    while (slots[slot].key != 0) slot = t.NextSlot(slot);
    slots[slot] = {k, k};
  }
  uint64_t total_touches = 0;
  for (int64_t k = 1; k <= 100; ++k) {
    uint64_t slot = t.SlotOf(k);
    uint64_t touches = 1;
    for (; slots[slot].key != k; ++touches) {
      ASSERT_NE(slots[slot].key, 0) << "key " << k << " not found";
      slot = t.NextSlot(slot);
    }
    EXPECT_EQ(slots[slot].value, k);
    total_touches += touches;
  }
  EXPECT_GE(total_touches, 100u);
  // At 50% load, average probe chains stay short.
  EXPECT_LT(total_touches, 300u);
}

TEST(BucketChainTableTest, InsertProbeRoundTrip) {
  constexpr uint32_t kBuckets = 2048;
  constexpr uint32_t kMax = 4096;
  std::vector<uint32_t> heads(kBuckets, 0);
  std::vector<int64_t> keys(kMax), values(kMax);
  std::vector<uint32_t> next(kMax);
  BucketChainTable t(heads.data(), kBuckets, keys.data(), values.data(),
                     next.data(), kMax);
  for (int64_t k = 1; k <= 4000; ++k) t.Insert(k, k + 7, /*radix_shift=*/0);
  EXPECT_EQ(t.size(), 4000u);
  for (int64_t k = 1; k <= 4000; ++k) {
    int64_t matched = -1;
    t.Probe(k, 0, [&](int64_t v) { matched = v; });
    EXPECT_EQ(matched, k + 7);
  }
  int64_t matched = -1;
  t.Probe(99999, 0, [&](int64_t v) { matched = v; });
  EXPECT_EQ(matched, -1);
}

TEST(BucketChainTableTest, DuplicateKeysAllMatch) {
  constexpr uint32_t kBuckets = 64;
  std::vector<uint32_t> heads(kBuckets, 0);
  std::vector<int64_t> keys(16), values(16);
  std::vector<uint32_t> next(16);
  BucketChainTable t(heads.data(), kBuckets, keys.data(), values.data(),
                     next.data(), 16);
  t.Insert(42, 1, 0);
  t.Insert(42, 2, 0);
  t.Insert(42, 3, 0);
  std::vector<int64_t> matches;
  t.Probe(42, 0, [&](int64_t v) { matches.push_back(v); });
  EXPECT_EQ(matches.size(), 3u);
}

TEST(BucketChainTableTest, ChainWalkCountsCollisions) {
  constexpr uint32_t kBuckets = 2;  // force collisions
  std::vector<uint32_t> heads(kBuckets, 0);
  std::vector<int64_t> keys(8), values(8);
  std::vector<uint32_t> next(8);
  BucketChainTable t(heads.data(), kBuckets, keys.data(), values.data(),
                     next.data(), 8);
  for (int64_t k = 1; k <= 8; ++k) t.Insert(k, k, 0);
  uint32_t walked = t.Probe(1, 0, [](int64_t) {});
  EXPECT_GE(walked, 1u);
  EXPECT_LE(walked, 8u);
}

}  // namespace
}  // namespace triton::hash
