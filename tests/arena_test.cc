#include "util/arena.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace auditgame::util {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(/*first_block_bytes=*/64);
  double* a = arena.AllocateArray<double>(5);
  double* b = arena.AllocateArray<double>(3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(double), 0u);
  // Ranges must not overlap.
  EXPECT_TRUE(b >= a + 5 || a >= b + 3);
  for (int i = 0; i < 5; ++i) a[i] = i;
  for (int i = 0; i < 3; ++i) b[i] = 100 + i;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a[i], i);
}

TEST(ArenaTest, GrowsBeyondFirstBlockAndCountsHeapBlocks) {
  Arena arena(/*first_block_bytes=*/128);
  for (int i = 0; i < 50; ++i) {
    double* p = arena.AllocateArray<double>(32);  // 256 bytes each
    ASSERT_NE(p, nullptr);
    p[0] = i;
  }
  EXPECT_EQ(arena.stats().requests, 50u);
  EXPECT_GE(arena.stats().heap_blocks, 1u);
  // Geometric growth keeps the block count logarithmic in total bytes.
  EXPECT_LE(arena.stats().heap_blocks, 12u);
}

TEST(ArenaTest, ResetReusesCapacityWithoutNewHeapBlocks) {
  Arena arena(/*first_block_bytes=*/1024);
  for (int round = 0; round < 100; ++round) {
    arena.Reset();
    double* p = arena.AllocateArray<double>(200);
    int* q = arena.AllocateArray<int>(100);
    p[199] = round;
    q[99] = round;
  }
  const Arena::Stats& stats = arena.stats();
  EXPECT_EQ(stats.requests, 200u);
  // After the first round's warm-up, every later round is heap-free: the
  // steady-state property the benches gate on.
  EXPECT_LE(stats.heap_blocks, 4u);
}

TEST(ArenaTest, ScopeRewindsNestedLifo) {
  Arena arena(/*first_block_bytes=*/256);
  double* outer = arena.AllocateArray<double>(8);
  outer[0] = 1.0;
  const uint64_t blocks_before = arena.stats().heap_blocks;
  double* first_inner = nullptr;
  {
    ArenaScope scope(arena);
    first_inner = arena.AllocateArray<double>(16);
    first_inner[0] = 2.0;
    {
      ArenaScope nested(arena);
      double* deep = arena.AllocateArray<double>(4);
      deep[0] = 3.0;
    }
  }
  // The same storage is handed out again after the scope rewound.
  double* second_inner = arena.AllocateArray<double>(16);
  EXPECT_EQ(second_inner, first_inner);
  EXPECT_EQ(arena.stats().heap_blocks, blocks_before);
  EXPECT_EQ(outer[0], 1.0);
}

TEST(ArenaVectorTest, BehavesLikeAVectorForTrivialTypes) {
  Arena arena;
  ArenaVector<double> v(arena);
  for (int i = 0; i < 100; ++i) v.push_back(i * 0.5);
  ASSERT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i * 0.5);

  v.assign(10, 7.0);
  ASSERT_EQ(v.size(), 10u);
  EXPECT_EQ(v.back(), 7.0);

  std::vector<double> src = {1.0, 2.0, 3.0};
  v.assign(src.data(), src.data() + src.size());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3.0);

  v.resize(5, -1.0);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[2], 3.0);
  EXPECT_EQ(v[4], -1.0);

  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(ArenaVectorTest, ReserveAvoidsGrowthCopies) {
  Arena arena;
  ArenaVector<int> v(arena);
  v.reserve(1000);
  const uint64_t requests_after_reserve = arena.stats().requests;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(arena.stats().requests, requests_after_reserve);
  EXPECT_EQ(v[999], 999);
}

}  // namespace
}  // namespace auditgame::util
