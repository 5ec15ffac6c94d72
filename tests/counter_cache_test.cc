/**
 * @file
 * Unit tests for the counter cache.
 */

#include <gtest/gtest.h>

#include "memctl/counter_cache.hh"

namespace cnvm
{
namespace
{

CounterLine
valuesOf(std::uint64_t base)
{
    CounterLine v;
    for (unsigned i = 0; i < countersPerLine; ++i)
        v[i] = base + i;
    return v;
}

TEST(CounterCache, InstallAndAccess)
{
    CounterCache cc(64 * 1024, 16, nullptr);
    EXPECT_EQ(cc.access(0x1000), nullptr);
    cc.install(0x1000, valuesOf(100), 0);
    CounterCacheLine *line = cc.access(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->values, valuesOf(100));
    EXPECT_FALSE(line->dirty());
    EXPECT_EQ(line->dirtyMask, 0);
}

TEST(CounterCache, DirtyInstallKeepsExactMask)
{
    // The mask an install carries is authoritative: the controller
    // passes exactly the slots the triggering write dirtied, and a
    // later flush persists only those. (Installing 0xff and patching
    // via peek() was the old, bug-prone protocol.)
    CounterCache cc(64 * 1024, 16, nullptr);
    cc.install(0x1000, valuesOf(1), 0x04);
    CounterCacheLine *line = cc.peek(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->dirty());
    EXPECT_EQ(line->dirtyMask, 0x04);
}

TEST(CounterCache, DirtyEvictionSurfacesValuesAndMask)
{
    // One set of two ways.
    CounterCache cc(128, 2, nullptr);
    cc.install(0x0, valuesOf(1), 0x0f);
    cc.install(0x40, valuesOf(2), 0);
    auto victim = cc.install(0x80, valuesOf(3), 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x0u);
    EXPECT_EQ(victim->values, valuesOf(1));
    EXPECT_EQ(victim->dirtyMask, 0x0f);
    EXPECT_EQ(cc.dirtyEvictions.value(), 1.0);
}

TEST(CounterCache, CleanEvictionIsSilent)
{
    CounterCache cc(128, 2, nullptr);
    cc.install(0x0, valuesOf(1), 0);
    cc.install(0x40, valuesOf(2), 0);
    EXPECT_FALSE(cc.install(0x80, valuesOf(3), 0).has_value());
    EXPECT_EQ(cc.dirtyEvictions.value(), 0.0);
}

TEST(CounterCache, LruPrefersUntouched)
{
    CounterCache cc(128, 2, nullptr);
    cc.install(0x0, valuesOf(1), 0x01);
    cc.install(0x40, valuesOf(2), 0x01);
    cc.access(0x0); // refresh
    auto victim = cc.install(0x80, valuesOf(3), 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x40u);
}

TEST(CounterCache, CountsValidAndDirty)
{
    CounterCache cc(64 * 1024, 16, nullptr);
    cc.install(0x0, valuesOf(0), 0);
    cc.install(0x40, valuesOf(1), 0x01);
    cc.install(0x80, valuesOf(2), 0x02);
    EXPECT_EQ(cc.validCount(), 3u);
    EXPECT_EQ(cc.dirtyCount(), 2u);
}

TEST(CounterCache, ResetLosesEverything)
{
    CounterCache cc(64 * 1024, 16, nullptr);
    cc.install(0x0, valuesOf(0), 0xff);
    cc.reset();
    EXPECT_EQ(cc.validCount(), 0u);
    EXPECT_EQ(cc.peek(0x0), nullptr);
}

TEST(CounterCache, StatsRegistered)
{
    stats::StatRegistry reg;
    CounterCache cc(64 * 1024, 16, &reg);
    EXPECT_NE(reg.find("ctrcache.ch0.read_hits"), nullptr);
    EXPECT_NE(reg.find("ctrcache.ch0.read_misses"), nullptr);
    EXPECT_NE(reg.find("ctrcache.ch0.write_hits"), nullptr);
    EXPECT_NE(reg.find("ctrcache.ch0.write_misses"), nullptr);
    EXPECT_NE(reg.find("ctrcache.ch0.dirty_evictions"), nullptr);
}

} // anonymous namespace
} // namespace cnvm
