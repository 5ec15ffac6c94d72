/**
 * @file
 * Unit tests for LineTable, the paged per-line store behind the
 * persisted image, the live view, the engine counters and recovery's
 * line cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/line_table.hh"

namespace cnvm
{
namespace
{

/** Base of the counter region (8 GB), far above any data page. */
constexpr Addr counterRegion = Addr(1) << 33;

std::vector<Addr>
addrsOf(const LineTable<std::uint64_t> &t)
{
    std::vector<Addr> out;
    t.forEach([&out](Addr a, const std::uint64_t &) { out.push_back(a); });
    return out;
}

TEST(LineTable, NeverWrittenLineIsAbsent)
{
    LineTable<LineData> t;
    EXPECT_EQ(t.find(0x1000), nullptr);
    EXPECT_FALSE(t.contains(0x1000));
    t[0x1000][0] = 7;
    // Same page, other line; other page; other chunk.
    EXPECT_EQ(t.find(0x1040), nullptr);
    EXPECT_EQ(t.find(0x2000), nullptr);
    EXPECT_EQ(t.find(counterRegion), nullptr);
    const LineTable<LineData> &ct = t;
    ASSERT_NE(ct.find(0x1000), nullptr);
    EXPECT_EQ((*ct.find(0x1000))[0], 7);
}

TEST(LineTable, FirstTouchZeroFills)
{
    LineTable<LineData> t;
    EXPECT_EQ(t[0x40], LineData{});
    t[0x40].fill(0xab);
    // A neighbour on the same (now allocated) page starts zeroed too.
    EXPECT_EQ(t[0x80], LineData{});
}

TEST(LineTable, EraseThenReinsertStartsFresh)
{
    LineTable<std::uint64_t> t;
    t[0x100] = 42;
    t[0x140] = 43;
    EXPECT_TRUE(t.erase(0x100));
    EXPECT_FALSE(t.erase(0x100));
    EXPECT_FALSE(t.erase(0x9000)); // never allocated
    EXPECT_EQ(t.find(0x100), nullptr);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0x100], 0u);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(*t.find(0x140), 43u);
}

TEST(LineTable, IteratesInAscendingAddressOrderAcrossDistantPages)
{
    LineTable<std::uint64_t> t;
    // Inserted out of order: counter region first, then data lines on
    // several pages and chunks, including both ends of one page.
    const std::vector<Addr> addrs = {
        counterRegion + 0x40, counterRegion, 0x10000fc0, 0x200000,
        0x10000000, 0x40, 0x1fffc0, counterRegion + (Addr(1) << 21)};
    for (Addr a : addrs)
        t[a] = a;
    std::vector<Addr> sorted = addrs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(addrsOf(t), sorted);
    t.forEach([](Addr a, const std::uint64_t &v) { EXPECT_EQ(a, v); });
}

TEST(LineTable, CopyIsIndependentOfSource)
{
    LineTable<std::uint64_t> src;
    src[0x0] = 1;
    src[counterRegion] = 2;
    LineTable<std::uint64_t> copy = src;
    copy[0x0] = 100;
    copy[0x40] = 5;
    src.erase(counterRegion);
    src[0x80] = 9;

    EXPECT_EQ(*src.find(0x0), 1u);
    EXPECT_EQ(src.find(0x40), nullptr);
    EXPECT_EQ(*copy.find(0x0), 100u);
    EXPECT_EQ(*copy.find(counterRegion), 2u);
    EXPECT_EQ(copy.find(0x80), nullptr);
    EXPECT_EQ(addrsOf(copy), (std::vector<Addr>{0x0, 0x40, counterRegion}));

    LineTable<std::uint64_t> assigned;
    assigned[0x1000] = 3;
    assigned = copy;
    EXPECT_EQ(assigned.find(0x1000), nullptr);
    EXPECT_EQ(addrsOf(assigned), addrsOf(copy));
    copy.clear();
    EXPECT_EQ(assigned.size(), 3u);
}

TEST(LineTable, CopySharesPagesUntilWritten)
{
    LineTable<std::uint64_t> src;
    src[0x0] = 1;
    src[0x40] = 2;
    src[counterRegion] = 3;
    const LineTable<std::uint64_t> copy = src;
    const LineTable<std::uint64_t> &csrc = src;
    EXPECT_EQ(copy.find(0x0), csrc.find(0x0));
    EXPECT_EQ(copy.find(counterRegion), csrc.find(counterRegion));

    // A write to one line of a shared page gives the writer its own
    // page: every line of it moves, lines on other pages stay shared.
    src[0x40] = 20;
    EXPECT_NE(copy.find(0x0), csrc.find(0x0));
    EXPECT_NE(copy.find(0x40), csrc.find(0x40));
    EXPECT_EQ(copy.find(counterRegion), csrc.find(counterRegion));
    EXPECT_EQ(*copy.find(0x40), 2u);
    EXPECT_EQ(*csrc.find(0x40), 20u);

    // Once private, the page is written in place.
    const std::uint64_t *own = csrc.find(0x0);
    src[0x80] = 4;
    EXPECT_EQ(csrc.find(0x0), own);

    // A non-const lookup of an absent line copies nothing.
    EXPECT_EQ(src.find(counterRegion + 0x40), nullptr);
    EXPECT_FALSE(src.erase(counterRegion + 0x40));
    EXPECT_EQ(copy.find(counterRegion), csrc.find(counterRegion));
}

TEST(LineTable, WritesToEitherSideStayPrivate)
{
    LineTable<std::uint64_t> a;
    for (Addr line = 0; line < 8 * lineBytes; line += lineBytes)
        a[line] = line;
    a[counterRegion] = 1;
    const std::vector<Addr> before = addrsOf(a);

    // Insert, overwrite and erase through the copy.
    LineTable<std::uint64_t> b = a;
    b[8 * lineBytes] = 99;
    b[0x0] = 100;
    *b.find(lineBytes) = 101;
    EXPECT_TRUE(b.erase(2 * lineBytes));
    EXPECT_TRUE(b.erase(counterRegion));
    EXPECT_EQ(addrsOf(a), before);
    EXPECT_EQ(a.size(), 9u);
    for (Addr line = 0; line < 8 * lineBytes; line += lineBytes)
        EXPECT_EQ(*a.find(line), line);
    EXPECT_EQ(*a.find(counterRegion), 1u);

    // And the same through the source, with the copy unchanged.
    const std::vector<Addr> b_before = addrsOf(b);
    a[16 * lineBytes] = 7;
    a[3 * lineBytes] = 300;
    *a.find(4 * lineBytes) = 400;
    EXPECT_TRUE(a.erase(5 * lineBytes));
    EXPECT_TRUE(a.erase(0x0));
    EXPECT_EQ(addrsOf(b), b_before);
    EXPECT_EQ(b.size(), 8u);
    EXPECT_EQ(*b.find(0x0), 100u);
    EXPECT_EQ(*b.find(lineBytes), 101u);
    EXPECT_EQ(*b.find(3 * lineBytes), 3 * lineBytes);
    EXPECT_EQ(*b.find(4 * lineBytes), 4 * lineBytes);
    EXPECT_EQ(*b.find(5 * lineBytes), 5 * lineBytes);
    EXPECT_EQ(*b.find(8 * lineBytes), 99u);
    EXPECT_EQ(b.find(16 * lineBytes), nullptr);
}

TEST(LineTable, ConcurrentCopiesWriteIndependently)
{
    // Forks of one image are copied, dosed and recovered on worker
    // threads while the trunk keeps reading its own image: every copy
    // writes its shared pages without a lock, and ThreadSanitizer
    // must see no race.
    LineTable<std::uint64_t> t;
    for (Addr a = 0; a < Addr(256) << 10; a += lineBytes)
        t[a] = a;
    const LineTable<std::uint64_t> &shared = t;

    std::vector<std::uint64_t> sums(4, 0);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < sums.size(); ++w) {
        workers.emplace_back([&shared, &sums, w] {
            LineTable<std::uint64_t> mine = shared;
            for (Addr a = w % 2 * lineBytes; a < Addr(256) << 10;
                 a += 2 * lineBytes)
                mine[a] += w + 1;
            mine.forEach([&sums, w](Addr a, const std::uint64_t &v) {
                sums[w] += v - a;
            });
        });
    }
    std::uint64_t mismatches = 0;
    for (Addr a = 0; a < Addr(256) << 10; a += lineBytes)
        mismatches += *shared.find(a) != a;
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(mismatches, 0u);
    // Each worker bumped every other line of the region by its id.
    const std::uint64_t half = (Addr(256) << 10) / lineBytes / 2;
    for (unsigned w = 0; w < sums.size(); ++w)
        EXPECT_EQ(sums[w], half * (w + 1)) << w;
    t.forEach([](Addr a, const std::uint64_t &v) { EXPECT_EQ(v, a); });
}

TEST(LineTable, MoveLeavesPagesInPlace)
{
    LineTable<std::uint64_t> src;
    std::uint64_t *p = &src[0x40];
    *p = 11;
    LineTable<std::uint64_t> moved = std::move(src);
    EXPECT_EQ(moved.find(0x40), p);
}

TEST(LineTable, PointersSurviveOtherInsertions)
{
    LineTable<LineData> t;
    LineData *first = &t[0x200000];
    (*first)[0] = 1;
    const LineData *found = t.find(0x200000);
    // Enough inserts to grow the chunk directory on both sides of the
    // first line's chunk, grow that chunk's page vector, and fill the
    // first line's page.
    for (Addr a = 0; a < Addr(64) << 20; a += Addr(1) << 20)
        t[a][1] = 2;
    for (Addr a = 0x200040; a < 0x201000; a += lineBytes)
        t[a][1] = 3;
    t[counterRegion][1] = 4;
    t.erase(0x200040);
    EXPECT_EQ(t.find(0x200000), first);
    EXPECT_EQ(found, first);
    EXPECT_EQ((*first)[0], 1);
}

TEST(LineTable, SizeCountsLines)
{
    LineTable<std::uint64_t> t;
    EXPECT_EQ(t.size(), 0u);
    t[0x0];
    t[0x0] = 5; // second touch: same line
    EXPECT_EQ(t.size(), 1u);
    t[0x40];
    t[counterRegion];
    EXPECT_EQ(t.size(), 3u);
    t.erase(0x40);
    EXPECT_EQ(t.size(), 2u);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(0x0), nullptr);
}

TEST(LineTable, ConcurrentConstLookups)
{
    // Concurrent crash-during-recovery points read one shared captured
    // image at once. Const lookups must mutate nothing, so this stays
    // race-free under ThreadSanitizer.
    LineTable<std::uint64_t> t;
    for (Addr a = 0; a < Addr(1) << 20; a += 3 * lineBytes)
        t[a] = a;
    t[counterRegion] = counterRegion;
    const LineTable<std::uint64_t> &shared = t;

    std::vector<std::uint64_t> hits(4, 0);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < hits.size(); ++w) {
        workers.emplace_back([&shared, &hits, w] {
            // Each worker strides in its own order, so consecutive
            // lookups from different threads land on different pages.
            for (Addr a = w * lineBytes; a < Addr(1) << 20;
                 a += 4 * lineBytes) {
                if (const std::uint64_t *v = shared.find(a))
                    hits[w] += *v == a;
            }
            hits[w] += shared.contains(counterRegion);
        });
    }
    for (std::thread &w : workers)
        w.join();
    std::uint64_t total = 0;
    for (std::uint64_t h : hits)
        total += h;
    // Every data line once across the workers, plus each worker's
    // counter-region hit.
    EXPECT_EQ(total, t.size() - 1 + hits.size());
}

} // namespace
} // namespace cnvm
