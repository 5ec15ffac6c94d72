/**
 * @file
 * Unit tests for the structural set-associative cache.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace cnvm
{
namespace
{

TEST(Cache, Geometry)
{
    Cache c("t", 64 * 1024, 8);
    EXPECT_EQ(c.sizeBytes(), 64u * 1024);
    EXPECT_EQ(c.associativity(), 8u);
    EXPECT_EQ(c.sets(), 128u);
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(Cache, MissThenHit)
{
    Cache c("t", 4096, 4);
    EXPECT_EQ(c.access(0x1000), nullptr);
    c.allocate(0x1000, CacheLine{});
    CacheLine *line = c.access(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_FALSE(line->dirty);
    EXPECT_FALSE(line->counterAtomic);
}

TEST(Cache, UnalignedAddressesMapToLine)
{
    Cache c("t", 4096, 4);
    c.allocate(0x1000, CacheLine{});
    EXPECT_NE(c.access(0x1017), nullptr);
    EXPECT_NE(c.peek(0x103f), nullptr);
    EXPECT_EQ(c.peek(0x1040), nullptr);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, single set via tiny geometry: 128 B total.
    Cache c("t", 128, 2);
    ASSERT_EQ(c.sets(), 1u);
    c.allocate(0x0, CacheLine{});
    c.allocate(0x40, CacheLine{});
    // Touch 0x0 so 0x40 becomes LRU.
    c.access(0x0);
    auto victim = c.allocate(0x80, CacheLine{});
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x40u);
    EXPECT_NE(c.peek(0x0), nullptr);
    EXPECT_EQ(c.peek(0x40), nullptr);
}

TEST(Cache, PeekDoesNotTouchLru)
{
    Cache c("t", 128, 2);
    c.allocate(0x0, CacheLine{});
    c.allocate(0x40, CacheLine{});
    c.peek(0x0); // must NOT refresh 0x0
    auto victim = c.allocate(0x80, CacheLine{});
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x0u); // still the oldest
}

TEST(Cache, EvictionCarriesDirtyState)
{
    Cache c("t", 128, 2);
    c.allocate(0x0, CacheLine{});
    CacheLine *line = c.access(0x0);
    line->dirty = true;
    line->counterAtomic = true;
    c.allocate(0x40, CacheLine{});
    auto victim = c.allocate(0x80, CacheLine{});
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x0u);
    EXPECT_TRUE(victim->dirty);
    EXPECT_TRUE(victim->counterAtomic);
}

TEST(Cache, CleanEvictionReportedWithoutDirty)
{
    Cache c("t", 128, 2);
    c.allocate(0x0, CacheLine{});
    c.allocate(0x40, CacheLine{});
    auto victim = c.allocate(0x80, CacheLine{});
    ASSERT_TRUE(victim.has_value());
    EXPECT_FALSE(victim->dirty);
}

TEST(Cache, InvalidateReturnsState)
{
    Cache c("t", 4096, 4);
    c.allocate(0x200, CacheLine{});
    c.access(0x200)->dirty = true;
    auto inv = c.invalidate(0x200);
    ASSERT_TRUE(inv.has_value());
    EXPECT_TRUE(inv->dirty);
    EXPECT_EQ(c.peek(0x200), nullptr);
    EXPECT_FALSE(c.invalidate(0x200).has_value());
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache c("t", 512, 2); // 4 sets
    // These map to different sets and never evict each other.
    c.allocate(0x0, CacheLine{});
    c.allocate(0x40, CacheLine{});
    c.allocate(0x80, CacheLine{});
    c.allocate(0xc0, CacheLine{});
    EXPECT_EQ(c.validCount(), 4u);
    for (Addr a : {0x0ull, 0x40ull, 0x80ull, 0xc0ull})
        EXPECT_NE(c.peek(a), nullptr);
}

TEST(Cache, ResetDropsEverything)
{
    Cache c("t", 4096, 4);
    c.allocate(0x100, CacheLine{});
    c.allocate(0x140, CacheLine{});
    c.reset();
    EXPECT_EQ(c.validCount(), 0u);
    EXPECT_EQ(c.peek(0x100), nullptr);
}

/** Parameterized: geometry sweep keeps LRU/indexing invariants. */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{};

TEST_P(CacheGeometry, FillToCapacityThenEvict)
{
    auto [size, assoc] = GetParam();
    Cache c("t", size, assoc);
    std::uint64_t lines = size / lineBytes;

    // Fill completely: no evictions expected.
    for (std::uint64_t i = 0; i < lines; ++i)
        ASSERT_FALSE(c.allocate(i * lineBytes, CacheLine{}).has_value());
    EXPECT_EQ(c.validCount(), lines);

    // One more allocation per set must evict exactly one line.
    for (std::uint64_t i = 0; i < c.sets(); ++i) {
        auto victim = c.allocate((lines + i) * lineBytes, CacheLine{});
        ASSERT_TRUE(victim.has_value());
    }
    EXPECT_EQ(c.validCount(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Values(std::make_pair(std::uint64_t(1024), 1u),
                      std::make_pair(std::uint64_t(2048), 2u),
                      std::make_pair(std::uint64_t(4096), 4u),
                      std::make_pair(std::uint64_t(64 * 1024), 8u),
                      std::make_pair(std::uint64_t(512 * 1024), 16u)));

} // anonymous namespace
} // namespace cnvm
