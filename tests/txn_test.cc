/**
 * @file
 * Unit tests for the transaction layer: ShadowMem, the undo-log layout,
 * the staged op emission of UndoTx (paper Figure 9), checksums, and the
 * crash-consistent bump allocator.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "txn/palloc.hh"
#include "txn/shadow_mem.hh"
#include "txn/undo_log.hh"

namespace cnvm
{
namespace
{

// --- ShadowMem -----------------------------------------------------------

TEST(ShadowMem, DefaultsToZero)
{
    ShadowMem shadow;
    EXPECT_EQ(shadow.readU64(0x1234), 0u);
    EXPECT_EQ(shadow.line(0x1000), LineData{});
}

TEST(ShadowMem, WriteReadRoundTrip)
{
    ShadowMem shadow;
    shadow.writeU64(0x1008, 0xdeadbeefcafef00dull);
    EXPECT_EQ(shadow.readU64(0x1008), 0xdeadbeefcafef00dull);
    EXPECT_EQ(shadow.readU64(0x1000), 0u);
}

TEST(ShadowMem, CrossLineAccess)
{
    ShadowMem shadow;
    std::uint8_t data[128];
    for (unsigned i = 0; i < 128; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    shadow.write(0x1020, data, 128); // spans three lines
    std::uint8_t back[128];
    shadow.read(0x1020, 128, back);
    EXPECT_EQ(std::memcmp(data, back, 128), 0);
    EXPECT_EQ(shadow.touchedLines(), 3u);
}

// --- LogLayout -----------------------------------------------------------

TEST(LogLayout, AddressesAreDisjointAndOrdered)
{
    LogLayout log{0x10000, 32};
    EXPECT_EQ(log.headerAddr(), 0x10000u);
    EXPECT_EQ(log.descBase(), 0x10040u);
    EXPECT_EQ(log.descBytes(), 256u); // 32 * 8, line aligned
    EXPECT_EQ(log.backupBase(), log.descBase() + log.descBytes());
    EXPECT_EQ(log.backupAddr(0), log.backupBase());
    EXPECT_EQ(log.backupAddr(31), log.backupBase() + 31 * lineBytes);
    EXPECT_EQ(log.sizeBytes(),
              lineBytes + log.descBytes() + 32 * lineBytes);
}

TEST(LogLayout, HeaderFieldOffsets)
{
    LogLayout log{0x10000, 8};
    EXPECT_EQ(log.magicAddr(), 0x10000u);
    EXPECT_EQ(log.validAddr(), 0x10008u);
    EXPECT_EQ(log.txnIdAddr(), 0x10010u);
    EXPECT_EQ(log.countAddr(), 0x10018u);
    EXPECT_EQ(log.checksumAddr(), 0x10020u);
}

TEST(LogLayout, MarkersAreDistinct)
{
    EXPECT_NE(LogLayout::kValid, LogLayout::kInvalid);
    EXPECT_NE(LogLayout::kValid, LogLayout::kMagic);
    EXPECT_NE(LogLayout::kInvalid, LogLayout::kMagic);
}

// --- UndoTx --------------------------------------------------------------

class UndoTxTest : public ::testing::Test
{
  protected:
    UndoTxTest() : log{0x10000, 16}, tx(shadow, log) {}

    /** Ops of given type within [first, last). */
    static unsigned
    countOps(const std::vector<Op> &ops, OpType type)
    {
        unsigned n = 0;
        for (const Op &op : ops)
            n += op.type == type ? 1 : 0;
        return n;
    }

    /** The mutate stage's stores: those between the first and the
     *  second fence. */
    static std::vector<Op>
    mutateStores(const std::vector<Op> &ops)
    {
        std::vector<Op> stores;
        unsigned fences = 0;
        for (const Op &op : ops) {
            fences += op.type == OpType::Fence ? 1 : 0;
            if (fences == 1 && op.type == OpType::Store)
                stores.push_back(op);
        }
        return stores;
    }

    ShadowMem shadow;
    LogLayout log;
    UndoTx tx;
};

TEST_F(UndoTxTest, ReadYourWrites)
{
    shadow.writeU64(0x20000, 5);
    tx.begin(1);
    EXPECT_EQ(tx.readU64(0x20000), 5u);
    tx.writeU64(0x20000, 9);
    EXPECT_EQ(tx.readU64(0x20000), 9u);  // sees own deferred write
    EXPECT_EQ(shadow.readU64(0x20000), 5u); // shadow unchanged until commit
}

TEST_F(UndoTxTest, CommitAppliesWritesToShadow)
{
    tx.begin(1);
    tx.writeU64(0x20000, 42);
    std::vector<Op> ops;
    tx.commit(ops);
    EXPECT_EQ(shadow.readU64(0x20000), 42u);
}

TEST_F(UndoTxTest, EmitsThreeStagesWithBarriers)
{
    tx.begin(1);
    tx.writeU64(0x20000, 1);
    tx.writeU64(0x20100, 2);
    std::vector<Op> ops;
    tx.commit(ops);

    // Three fences: prepare, mutate, commit.
    EXPECT_EQ(countOps(ops, OpType::Fence), 3u);
    // Counter writebacks appear in prepare and mutate stages.
    EXPECT_GE(countOps(ops, OpType::CtrWb), 2u);
    // Stores: header + descriptors + 2 backups + 2 mutations + commit.
    EXPECT_GE(countOps(ops, OpType::Store), 6u);
}

TEST_F(UndoTxTest, StageOrdering)
{
    tx.begin(1);
    tx.writeU64(0x20000, 1);
    std::vector<Op> ops;
    tx.commit(ops);

    // Find the three fences; the mutation store of 0x20000 must be
    // after the first fence (prepare) and before the second (mutate).
    int fence1 = -1, fence2 = -1;
    int mutate_store = -1;
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
        if (ops[i].type == OpType::Fence) {
            if (fence1 < 0)
                fence1 = i;
            else if (fence2 < 0)
                fence2 = i;
        }
        if (ops[i].type == OpType::Store
            && lineAlign(ops[i].addr) == 0x20000)
            mutate_store = i;
    }
    ASSERT_GE(fence1, 0);
    ASSERT_GE(fence2, 0);
    ASSERT_GE(mutate_store, 0);
    EXPECT_GT(mutate_store, fence1);
    EXPECT_LT(mutate_store, fence2);
}

TEST_F(UndoTxTest, CommitStoreIsCounterAtomic)
{
    tx.begin(1);
    tx.writeU64(0x20000, 1);
    std::vector<Op> ops;
    tx.commit(ops);

    // The last store is the `valid = invalid` flip and must carry the
    // CounterAtomic annotation (paper Figure 9 line 17).
    const Op *last_store = nullptr;
    for (const Op &op : ops)
        if (op.type == OpType::Store)
            last_store = &op;
    ASSERT_NE(last_store, nullptr);
    EXPECT_EQ(last_store->addr, log.validAddr());
    EXPECT_TRUE(last_store->counterAtomic);
    std::uint64_t v;
    std::memcpy(&v, last_store->bytes.data(), 8);
    EXPECT_EQ(v, LogLayout::kInvalid);
}

TEST_F(UndoTxTest, HeaderStoreIsCounterAtomic)
{
    tx.begin(7);
    tx.writeU64(0x20000, 1);
    std::vector<Op> ops;
    tx.commit(ops);
    bool found = false;
    for (const Op &op : ops) {
        if (op.type == OpType::Store && op.addr == log.headerAddr()) {
            EXPECT_TRUE(op.counterAtomic);
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(UndoTxTest, BackupSnapshotsPreTxnContent)
{
    shadow.writeU64(0x20000, 0xaaaa);
    tx.begin(1);
    tx.writeU64(0x20000, 0xbbbb);
    std::vector<Op> ops;
    tx.commit(ops);
    // After commit, the shadow's backup slot 0 holds the OLD value.
    EXPECT_EQ(shadow.readU64(log.backupAddr(0)), 0xaaaaull);
    EXPECT_EQ(shadow.readU64(log.descAddr(0)), 0x20000ull);
    EXPECT_EQ(shadow.readU64(0x20000), 0xbbbbull);
}

TEST_F(UndoTxTest, ChecksumVerifiesAfterCommit)
{
    tx.begin(3);
    tx.writeU64(0x20000, 1);
    tx.writeU64(0x20100, 2);
    std::vector<Op> ops;
    tx.commit(ops);
    std::uint64_t stored = shadow.readU64(log.checksumAddr());
    std::uint64_t count = shadow.readU64(log.countAddr());
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(logChecksum(shadow, log, 3, count), stored);
}

TEST_F(UndoTxTest, ChecksumDetectsCorruptedBackup)
{
    tx.begin(3);
    tx.writeU64(0x20000, 1);
    std::vector<Op> ops;
    tx.commit(ops);
    std::uint64_t stored = shadow.readU64(log.checksumAddr());
    shadow.writeU64(log.backupAddr(0) + 16, 0x1234); // corrupt
    EXPECT_NE(logChecksum(shadow, log, 3, 1), stored);
}

TEST_F(UndoTxTest, LoadsEmittedOncePerLine)
{
    shadow.writeU64(0x20000, 1);
    tx.begin(1);
    tx.readU64(0x20000);
    tx.readU64(0x20008); // same line: no second load
    tx.readU64(0x20040); // new line
    tx.writeU64(0x30000, 1);
    std::vector<Op> ops;
    tx.commit(ops);
    unsigned loads = 0;
    for (const Op &op : ops)
        loads += op.type == OpType::Load ? 1 : 0;
    EXPECT_EQ(loads, 2u);
}

TEST_F(UndoTxTest, CtrwbDeduplicatedPerCounterLine)
{
    tx.begin(1);
    // Two lines in the same 512 B counter group.
    tx.writeU64(0x20000, 1);
    tx.writeU64(0x20040, 2);
    std::vector<Op> ops;
    tx.commit(ops);
    // Mutate-stage ctrwbs: one should cover both lines. Count ctrwbs
    // whose target is in the mutate group.
    unsigned mutate_group_ctrwbs = 0;
    for (const Op &op : ops) {
        if (op.type == OpType::CtrWb
            && lineAlign(op.addr) / lineBytes / countersPerLine
               == 0x20000 / lineBytes / countersPerLine)
            ++mutate_group_ctrwbs;
    }
    EXPECT_EQ(mutate_group_ctrwbs, 1u);
}

TEST_F(UndoTxTest, TouchedLinesCountsDistinctLines)
{
    tx.begin(1);
    tx.writeU64(0x20000, 1);
    tx.writeU64(0x20008, 2); // same line
    tx.writeU64(0x20040, 3);
    EXPECT_EQ(tx.touchedLines(), 2u);
}

TEST_F(UndoTxTest, ComputeOpsPassThrough)
{
    tx.begin(1);
    tx.compute(123);
    tx.writeU64(0x20000, 1);
    std::vector<Op> ops;
    tx.commit(ops);
    ASSERT_GE(ops.size(), 1u);
    bool found = false;
    for (const Op &op : ops)
        if (op.type == OpType::Compute && op.cycles == 123)
            found = true;
    EXPECT_TRUE(found);
}

TEST_F(UndoTxTest, SequentialTransactionsReuseLog)
{
    for (std::uint64_t id = 1; id <= 3; ++id) {
        tx.begin(id);
        tx.writeU64(0x20000 + id * 0x100, id);
        std::vector<Op> ops;
        tx.commit(ops);
        EXPECT_EQ(shadow.readU64(log.txnIdAddr()), id);
        EXPECT_EQ(shadow.readU64(log.validAddr()), LogLayout::kInvalid);
    }
}

TEST_F(UndoTxTest, MutateStoreCoversWrittenSpan)
{
    LineData before;
    for (unsigned i = 0; i < lineBytes; ++i)
        before[i] = static_cast<std::uint8_t>(0x80 + i);
    shadow.write(0x20000, before.data(), lineBytes);
    tx.begin(1);
    const std::uint8_t lo[3] = {1, 2, 3}, hi[4] = {4, 5, 6, 7};
    tx.write(0x20003, lo, sizeof(lo));
    tx.write(0x2003c, hi, sizeof(hi));
    std::vector<Op> ops;
    tx.commit(ops);

    // One store from the first written byte to the last; the bytes in
    // between are the shadow's.
    LineData after = before;
    std::memcpy(after.data() + 3, lo, sizeof(lo));
    std::memcpy(after.data() + 60, hi, sizeof(hi));
    std::vector<Op> stores = mutateStores(ops);
    ASSERT_EQ(stores.size(), 1u);
    EXPECT_EQ(stores[0].addr, 0x20003u);
    ASSERT_EQ(stores[0].size, 61u);
    EXPECT_EQ(std::memcmp(stores[0].bytes.data(), after.data() + 3, 61), 0);
    EXPECT_EQ(shadow.line(0x20000), after);
}

TEST_F(UndoTxTest, WriteAcrossLinesTouchesBoth)
{
    auto old_byte = [](Addr a) {
        return static_cast<std::uint8_t>(a ^ 0xa5);
    };
    for (Addr a = 0x20000; a < 0x20080; ++a) {
        std::uint8_t b = old_byte(a);
        shadow.write(a, &b, 1);
    }
    std::uint8_t data[16];
    for (unsigned i = 0; i < sizeof(data); ++i)
        data[i] = static_cast<std::uint8_t>(0x40 + i);
    tx.begin(1);
    tx.write(0x2003c, data, sizeof(data));
    EXPECT_EQ(tx.touchedLines(), 2u);

    // 0x20038..0x2004f: four shadow bytes, the sixteen written, four
    // shadow bytes.
    std::uint8_t got[24];
    tx.read(0x20038, sizeof(got), got);
    for (unsigned i = 0; i < sizeof(got); ++i) {
        Addr a = 0x20038 + i;
        bool written = a >= 0x2003c && a < 0x2004c;
        EXPECT_EQ(got[i], written ? data[a - 0x2003c] : old_byte(a))
            << "byte " << i;
    }

    std::vector<Op> ops;
    tx.commit(ops);
    std::vector<Op> stores = mutateStores(ops);
    ASSERT_EQ(stores.size(), 2u);
    EXPECT_EQ(stores[0].addr, 0x2003cu);
    EXPECT_EQ(stores[0].size, 4u);
    EXPECT_EQ(std::memcmp(stores[0].bytes.data(), data, 4), 0);
    EXPECT_EQ(stores[1].addr, 0x20040u);
    EXPECT_EQ(stores[1].size, 12u);
    EXPECT_EQ(std::memcmp(stores[1].bytes.data(), data + 4, 12), 0);
}

TEST_F(UndoTxTest, DescriptorsFollowFirstWriteOrder)
{
    // A is read first but written after B: the log follows the writes.
    const Addr a = 0x20000, b = 0x30000;
    shadow.writeU64(a, 0xaaaa);
    shadow.writeU64(b, 0xbbbb);
    tx.begin(1);
    EXPECT_EQ(tx.readU64(a), 0xaaaau);
    tx.writeU64(b, 1);
    tx.writeU64(a, 2);
    std::vector<Op> ops;
    tx.commit(ops);

    EXPECT_EQ(shadow.readU64(log.descAddr(0)), b);
    EXPECT_EQ(shadow.readU64(log.descAddr(1)), a);
    EXPECT_EQ(shadow.readU64(log.backupAddr(0)), 0xbbbbu);
    EXPECT_EQ(shadow.readU64(log.backupAddr(1)), 0xaaaau);
    std::vector<Addr> backup_stores;
    for (const Op &op : ops)
        if (op.type == OpType::Store && op.addr >= log.backupBase()
            && op.addr < log.backupAddr(log.maxLines))
            backup_stores.push_back(op.addr);
    EXPECT_EQ(backup_stores,
              (std::vector<Addr>{log.backupAddr(0), log.backupAddr(1)}));
}

TEST_F(UndoTxTest, OverCapacityIsFatal)
{
    tx.begin(1);
    for (unsigned i = 0; i < log.maxLines; ++i)
        tx.writeU64(0x20000 + i * lineBytes, i);
    tx.writeU64(0x20008, 1); // a line already held still fits
    EXPECT_EQ(tx.touchedLines(), log.maxLines);
    EXPECT_EXIT(tx.writeU64(0x20000 + log.maxLines * lineBytes, 1),
                ::testing::ExitedWithCode(1), "undo log capacity");
}

// --- PersistentAllocator ---------------------------------------------------

TEST(PersistentAllocator, AllocatesSequentially)
{
    ShadowMem shadow;
    LogLayout log{0x10000, 8};
    PersistentAllocator alloc(0x20000, 0x21000, 0x22000);
    alloc.initialize([&](Addr a, const void *d, unsigned s) {
        shadow.write(a, d, s);
    });
    EXPECT_EQ(shadow.readU64(0x20000), 0x21000u);

    UndoTx tx(shadow, log);
    tx.begin(1);
    Addr first = alloc.alloc(tx, 64);
    Addr second = alloc.alloc(tx, 64);
    EXPECT_EQ(first, 0x21000u);
    EXPECT_EQ(second, 0x21040u);
    std::vector<Op> ops;
    tx.commit(ops);
    EXPECT_EQ(shadow.readU64(0x20000), 0x21080u);
}

TEST(PersistentAllocator, RespectsAlignment)
{
    ShadowMem shadow;
    LogLayout log{0x10000, 8};
    PersistentAllocator alloc(0x20000, 0x21000, 0x22000);
    alloc.initialize([&](Addr a, const void *d, unsigned s) {
        shadow.write(a, d, s);
    });
    UndoTx tx(shadow, log);
    tx.begin(1);
    alloc.alloc(tx, 8, 8);
    Addr aligned = alloc.alloc(tx, 128, 128);
    EXPECT_EQ(aligned % 128, 0u);
}

TEST(PersistentAllocator, ReturnsZeroWhenExhausted)
{
    ShadowMem shadow;
    LogLayout log{0x10000, 8};
    PersistentAllocator alloc(0x20000, 0x21000, 0x21080); // 2 lines
    alloc.initialize([&](Addr a, const void *d, unsigned s) {
        shadow.write(a, d, s);
    });
    UndoTx tx(shadow, log);
    tx.begin(1);
    EXPECT_NE(alloc.alloc(tx, 64), 0u);
    EXPECT_NE(alloc.alloc(tx, 64), 0u);
    EXPECT_EQ(alloc.alloc(tx, 64), 0u);
}

TEST(PersistentAllocator, UncommittedCursorNotVisibleToShadow)
{
    // The cursor advance is a transactional write: before commit the
    // shadow still holds the old cursor (and so would recovery).
    ShadowMem shadow;
    LogLayout log{0x10000, 8};
    PersistentAllocator alloc(0x20000, 0x21000, 0x22000);
    alloc.initialize([&](Addr a, const void *d, unsigned s) {
        shadow.write(a, d, s);
    });
    UndoTx tx(shadow, log);
    tx.begin(1);
    alloc.alloc(tx, 64);
    EXPECT_EQ(shadow.readU64(0x20000), 0x21000u);
    EXPECT_EQ(alloc.remaining(shadow), 0x1000u);
}

} // anonymous namespace
} // namespace cnvm
