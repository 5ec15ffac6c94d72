/**
 * @file
 * Unit tests for the five workloads: setup invariants, transaction
 * generation, digest determinism/sensitivity, and validation against
 * the live shadow after many operations.
 */

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "workloads/array_swap.hh"
#include "workloads/btree.hh"
#include "workloads/factory.hh"
#include "workloads/hash_table.hh"
#include "workloads/item_pattern.hh"
#include "workloads/mem_io.hh"
#include "workloads/queue.hh"
#include "workloads/rbtree.hh"

namespace cnvm
{
namespace
{

WorkloadParams
smallParams(unsigned txns = 50)
{
    WorkloadParams p;
    p.regionBase = 1 << 20;
    p.regionBytes = 256 << 10;
    p.txnTarget = txns;
    p.batch = 1;
    p.computePerTxn = 0;
    p.seed = 12345;
    p.setupFill = 0.3;
    return p;
}

/** Sets up a workload against a discard init-writer and runs all txns
 *  host-side (the op streams are generated but not simulated). */
void
runAll(Workload &wl)
{
    wl.setup([](Addr, const void *, unsigned) {});
    std::vector<Op> ops;
    while (wl.next(ops))
        ops.clear();
}

// --- factory ---------------------------------------------------------------

TEST(Factory, AllFiveKinds)
{
    EXPECT_EQ(allWorkloadKinds().size(), 5u);
    for (WorkloadKind kind : allWorkloadKinds()) {
        auto wl = makeWorkload(kind, smallParams());
        ASSERT_NE(wl, nullptr);
        EXPECT_STREQ(wl->name(), workloadKindName(kind));
    }
}

TEST(Factory, NamesRoundTrip)
{
    EXPECT_EQ(workloadKindFromName("array"), WorkloadKind::ArraySwap);
    EXPECT_EQ(workloadKindFromName("Queue"), WorkloadKind::Queue);
    EXPECT_EQ(workloadKindFromName("HASH"), WorkloadKind::HashTable);
    EXPECT_EQ(workloadKindFromName("b-tree"), WorkloadKind::BTree);
    EXPECT_EQ(workloadKindFromName("rbtree"), WorkloadKind::RbTree);
}

// --- item pattern ------------------------------------------------------------

TEST(ItemPattern, RoundTrip)
{
    std::uint8_t buf[256];
    fillItemPattern(42, sizeof(buf), buf);
    EXPECT_TRUE(checkItemPattern(42, sizeof(buf), buf));
    EXPECT_FALSE(checkItemPattern(43, sizeof(buf), buf));
    buf[100] ^= 1;
    EXPECT_FALSE(checkItemPattern(42, sizeof(buf), buf));
}

TEST(ItemPattern, WrongLastWordFails)
{
    std::uint8_t buf[256];
    fillItemPattern(42, sizeof(buf), buf);
    buf[sizeof(buf) - 1] ^= 0x80;
    EXPECT_FALSE(checkItemPattern(42, sizeof(buf), buf));
}

TEST(ItemPattern, BytesPastTheLastWordMustBeZero)
{
    // 100 bytes: twelve whole words, then four bytes the pattern leaves
    // alone and the check expects to read 0.
    std::uint8_t buf[100] = {};
    fillItemPattern(7, sizeof(buf), buf);
    EXPECT_TRUE(checkItemPattern(7, sizeof(buf), buf));
    buf[95] ^= 1; // last whole word
    EXPECT_FALSE(checkItemPattern(7, sizeof(buf), buf));
    buf[95] ^= 1;
    buf[98] = 1; // past it
    EXPECT_FALSE(checkItemPattern(7, sizeof(buf), buf));
}

TEST(ItemPattern, FirstWordIsValue)
{
    std::uint8_t buf[64];
    fillItemPattern(0x1122334455667788ull, sizeof(buf), buf);
    std::uint64_t v;
    std::memcpy(&v, buf, 8);
    EXPECT_EQ(v, 0x1122334455667788ull);
}

// --- generic per-workload properties ---------------------------------------

class WorkloadParam : public ::testing::TestWithParam<WorkloadKind>
{};

TEST_P(WorkloadParam, ValidatesCleanAfterSetup)
{
    auto wl = makeWorkload(GetParam(), smallParams());
    wl->setup([](Addr, const void *, unsigned) {});
    ValidationResult result = wl->validate(wl->shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
}

TEST_P(WorkloadParam, ValidatesCleanAfterManyTxns)
{
    auto wl = makeWorkload(GetParam(), smallParams(100));
    runAll(*wl);
    EXPECT_EQ(wl->txnsIssued(), 100u);
    ValidationResult result = wl->validate(wl->shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
}

TEST_P(WorkloadParam, DigestIsDeterministic)
{
    auto a = makeWorkload(GetParam(), smallParams());
    auto b = makeWorkload(GetParam(), smallParams());
    runAll(*a);
    runAll(*b);
    EXPECT_EQ(a->digest(a->shadowMem()), b->digest(b->shadowMem()));
}

TEST_P(WorkloadParam, DigestChangesWithSeed)
{
    auto a = makeWorkload(GetParam(), smallParams());
    WorkloadParams p2 = smallParams();
    p2.seed = 999;
    auto b = makeWorkload(GetParam(), p2);
    runAll(*a);
    runAll(*b);
    EXPECT_NE(a->digest(a->shadowMem()), b->digest(b->shadowMem()));
}

TEST_P(WorkloadParam, DigestEvolvesAcrossCommits)
{
    WorkloadParams p = smallParams(10);
    p.recordDigests = true;
    auto wl = makeWorkload(GetParam(), p);
    runAll(*wl);
    const auto &digests = wl->digests();
    ASSERT_EQ(digests.size(), 11u); // initial + one per txn
    // Digests are not all identical (the structure changes).
    bool any_change = false;
    for (std::size_t i = 1; i < digests.size(); ++i)
        any_change |= digests[i] != digests[i - 1];
    EXPECT_TRUE(any_change);
}

TEST_P(WorkloadParam, TransactionsEmitStagedOps)
{
    auto wl = makeWorkload(GetParam(), smallParams(5));
    wl->setup([](Addr, const void *, unsigned) {});
    std::vector<Op> ops;
    ASSERT_TRUE(wl->next(ops));
    unsigned fences = 0, stores = 0, ca_stores = 0;
    for (const Op &op : ops) {
        fences += op.type == OpType::Fence ? 1 : 0;
        if (op.type == OpType::Store) {
            ++stores;
            ca_stores += op.counterAtomic ? 1 : 0;
        }
    }
    EXPECT_EQ(fences, 3u);      // prepare, mutate, commit
    EXPECT_GE(stores, 3u);
    EXPECT_GE(ca_stores, 2u);   // header valid=true and valid=false
}

TEST_P(WorkloadParam, StopsAtTarget)
{
    auto wl = makeWorkload(GetParam(), smallParams(7));
    wl->setup([](Addr, const void *, unsigned) {});
    std::vector<Op> ops;
    unsigned batches = 0;
    while (wl->next(ops)) {
        ++batches;
        ops.clear();
    }
    EXPECT_EQ(batches, 7u);
    EXPECT_FALSE(wl->next(ops));
}

TEST_P(WorkloadParam, AllWritesStayInRegion)
{
    auto wl = makeWorkload(GetParam(), smallParams(20));
    wl->setup([](Addr, const void *, unsigned) {});
    std::vector<Op> ops;
    while (wl->next(ops)) {
        for (const Op &op : ops) {
            if (op.type == OpType::Store || op.type == OpType::Clwb
                || op.type == OpType::Load) {
                ASSERT_TRUE(wl->inRegion(op.addr))
                    << "op outside region at " << std::hex << op.addr;
            }
        }
        ops.clear();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadParam,
    ::testing::ValuesIn(allWorkloadKinds()),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        std::string name = workloadKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// --- setup's shadow ---------------------------------------------------------

/** Folds every line the shadow holds, address and bytes, in the
 *  table's ascending order. */
std::uint64_t
tableDigest(const ShadowMem &shadow)
{
    std::uint64_t state = fnvOffsetBasis;
    shadow.table().forEach([&](Addr addr, const LineData &line) {
        state = fnv1aU64(addr, state);
        state = fnv1a(line.data(), line.size(), state);
    });
    return state;
}

TEST(WorkloadSetup, ShadowMatchesPinnedDigests)
{
    // Setup's shadow is what System installs and warms the counter
    // cache from, so a change to how a workload builds its initial
    // structure must leave the same lines and bytes.
    struct Pin
    {
        WorkloadKind kind;
        std::uint64_t seed;
        std::uint64_t table;
    };
    // Array and Queue fill each item from its index alone, so their two
    // seeds pin the same shadow.
    const Pin pins[] = {
        {WorkloadKind::ArraySwap, 1, 0x40842daf83be21dbull},
        {WorkloadKind::ArraySwap, 1009, 0x40842daf83be21dbull},
        {WorkloadKind::Queue, 1, 0x76d5db35e4f06d0cull},
        {WorkloadKind::Queue, 1009, 0x76d5db35e4f06d0cull},
        {WorkloadKind::HashTable, 1, 0xc17d48c339b6b6e5ull},
        {WorkloadKind::HashTable, 1009, 0x97b04914bcb00f5aull},
        {WorkloadKind::BTree, 1, 0xb317e9957770bcd2ull},
        {WorkloadKind::BTree, 1009, 0xc901e37a0caa00a7ull},
        {WorkloadKind::RbTree, 1, 0x101062ff44a6dc25ull},
        {WorkloadKind::RbTree, 1009, 0x5239568b5fef8b87ull},
    };
    for (const Pin &pin : pins) {
        WorkloadParams p = smallParams(0);
        p.seed = pin.seed;
        p.setupFill = 0.5;
        auto wl = makeWorkload(pin.kind, p);
        wl->setup([](Addr, const void *, unsigned) {});
        SCOPED_TRACE(std::string(workloadKindName(pin.kind)) + " seed "
                     + std::to_string(pin.seed));
        EXPECT_EQ(tableDigest(wl->shadowMem()), pin.table);
    }
}

// --- SetupIo ----------------------------------------------------------------

constexpr Addr ioBase = Addr(1) << 20;

TEST(SetupIo, ReadsSeeTheShadowAtConstruction)
{
    const Addr end = ioBase + 8 * lineBytes;
    ShadowMem shadow;
    shadow.writeU64(ioBase, 11);
    shadow.writeU64(ioBase + 8, ioBase + 4 * lineBytes); // cursor
    shadow.writeU64(ioBase + 3 * lineBytes + 24, 22);
    shadow.writeU64(end, 33); // outside the region
    SetupIo io(shadow, ioBase, end, ioBase + 8, end);
    EXPECT_EQ(io.readU64(ioBase), 11u);
    EXPECT_EQ(io.readU64(ioBase + 3 * lineBytes + 24), 22u);
    EXPECT_EQ(io.readU64(ioBase + 5 * lineBytes), 0u);

    // Allocation reads and advances the seeded cursor in the copy.
    EXPECT_EQ(io.allocNode(2 * lineBytes, 2 * lineBytes),
              ioBase + 4 * lineBytes);
    EXPECT_EQ(io.readU64(ioBase + 8), ioBase + 6 * lineBytes);
    EXPECT_EQ(io.allocNode(4 * lineBytes, lineBytes), 0u);

    // The shadow sees nothing until a flush.
    io.writeU64(ioBase, 12);
    EXPECT_EQ(io.readU64(ioBase), 12u);
    EXPECT_EQ(shadow.readU64(ioBase), 11u);
    EXPECT_EQ(shadow.readU64(ioBase + 8), ioBase + 4 * lineBytes);
}

TEST(SetupIo, FlushHandsEachWrittenLineOnceWholeInAddressOrder)
{
    const Addr l1 = ioBase + lineBytes, l2 = ioBase + 2 * lineBytes,
               l6 = ioBase + 6 * lineBytes;
    ShadowMem shadow;
    shadow.writeU64(l2 + 8, 5);
    shadow.writeU64(ioBase + 4 * lineBytes, 1); // held, never written
    SetupIo io(shadow, ioBase, ioBase + 8 * lineBytes, ioBase + 8,
               ioBase + 8 * lineBytes);
    io.writeU64(l2 + 16, 6);
    io.writeU64(l6, 7);
    io.writeU64(l2 + 56, 8);
    io.writeU64(l1 + 32, 0); // a zero still writes the line
    io.writeU64(l6 + 8, 10);
    (void)io.readU64(ioBase + 3 * lineBytes); // a read writes nothing

    std::vector<Addr> order;
    std::vector<LineData> lines;
    io.flush([&](Addr addr, const std::uint8_t *bytes) {
        order.push_back(addr);
        LineData line;
        std::memcpy(line.data(), bytes, lineBytes);
        lines.push_back(line);
    });
    ASSERT_EQ(order, (std::vector<Addr>{l1, l2, l6}));

    auto word = [](const LineData &line, unsigned i) {
        std::uint64_t v;
        std::memcpy(&v, line.data() + 8 * i, sizeof(v));
        return v;
    };
    const std::uint64_t expect[3][8] = {
        {0, 0, 0, 0, 0, 0, 0, 0},
        {0, 5, 6, 0, 0, 0, 0, 8}, // the seeded word comes along
        {7, 10, 0, 0, 0, 0, 0, 0},
    };
    for (unsigned l = 0; l < 3; ++l) {
        for (unsigned i = 0; i < 8; ++i)
            EXPECT_EQ(word(lines[l], i), expect[l][i])
                << "line " << l << " word " << i;
    }
}

TEST(SetupIo, FlushLeavesWhatDirectShadowWritesLeave)
{
    const Addr end = ioBase + (64 << 10);
    const std::uint64_t words = (end - ioBase) / 8;
    ShadowMem built, direct;
    // Lines held before the builder starts: a header and a scatter.
    for (ShadowMem *s : {&built, &direct}) {
        s->writeU64(ioBase, 0x1111);
        for (Addr a = ioBase + 40 * lineBytes; a < end; a += 97 * lineBytes)
            s->writeU64(a + 16, a);
    }
    SetupIo io(built, ioBase, end, ioBase + 8, end);
    // About three in four of the region's 1024 lines get written, in
    // scrambled order, some more than once and some with zeros.
    Random rng(7);
    for (unsigned i = 0; i < 1500; ++i) {
        Addr addr = ioBase + rng.below(words) * 8;
        std::uint64_t v = i % 11 == 0 ? 0 : rng.next();
        io.writeU64(addr, v);
        direct.writeU64(addr, v);
    }
    io.flush([&](Addr addr, const std::uint8_t *bytes) {
        built.write(addr, bytes, lineBytes);
    });
    EXPECT_GT(direct.touchedLines(), 600u);
    EXPECT_LT(direct.touchedLines(), 1000u);
    EXPECT_EQ(built.touchedLines(), direct.touchedLines());
    EXPECT_EQ(tableDigest(built), tableDigest(direct));
}

// --- workload-specific checks ------------------------------------------------

TEST(ArraySwap, MultisetPreservedAfterSwaps)
{
    WorkloadParams p = smallParams(200);
    ArraySwapWorkload wl(p);
    runAll(wl);
    EXPECT_TRUE(wl.validate(wl.shadowMem()).ok);
    EXPECT_GT(wl.numItems(), 100u);
}

TEST(ArraySwap, ItemLinesScaleItemSize)
{
    WorkloadParams p = smallParams(10);
    p.itemLines = 4;
    ArraySwapWorkload wl(p);
    wl.setup([](Addr, const void *, unsigned) {});
    EXPECT_EQ(wl.itemAddr(1) - wl.itemAddr(0), 4u * lineBytes);
}

TEST(Queue, PrefilledToSetupFill)
{
    WorkloadParams p = smallParams(0);
    p.setupFill = 0.5;
    QueueWorkload wl(p);
    wl.setup([](Addr, const void *, unsigned) {});
    // The validator checks item content against the FIFO contract.
    EXPECT_TRUE(wl.validate(wl.shadowMem()).ok);
    EXPECT_GT(wl.capacity(), 0u);
}

TEST(Queue, SurvivesFillAndDrainCycles)
{
    WorkloadParams p = smallParams(500);
    p.regionBytes = 64 << 10; // small: forces wrap-around
    p.setupFill = 0.9;
    QueueWorkload wl(p);
    runAll(wl);
    EXPECT_TRUE(wl.validate(wl.shadowMem()).ok);
}

TEST(HashTable, ChainsConsistentAfterInserts)
{
    WorkloadParams p = smallParams(300);
    HashTableWorkload wl(p);
    runAll(wl);
    ValidationResult result = wl.validate(wl.shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
}

TEST(BTree, InvariantsHoldThroughSplits)
{
    WorkloadParams p = smallParams(400);
    p.setupFill = 0.2;
    BTreeWorkload wl(p);
    runAll(wl);
    ValidationResult result = wl.validate(wl.shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
    EXPECT_GT(wl.keyCount(wl.shadowMem()), 400u);
}

TEST(BTree, KeyCountGrowsWithInserts)
{
    WorkloadParams p = smallParams(50);
    p.setupFill = 0.1;
    BTreeWorkload wl(p);
    wl.setup([](Addr, const void *, unsigned) {});
    std::uint64_t before = wl.keyCount(wl.shadowMem());
    std::vector<Op> ops;
    while (wl.next(ops))
        ops.clear();
    EXPECT_EQ(wl.keyCount(wl.shadowMem()), before + 50);
}

TEST(RbTree, InvariantsHoldThroughRotations)
{
    WorkloadParams p = smallParams(400);
    p.setupFill = 0.2;
    RbTreeWorkload wl(p);
    runAll(wl);
    ValidationResult result = wl.validate(wl.shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
}

TEST(RbTree, DetectsCorruptedColor)
{
    WorkloadParams p = smallParams(50);
    RbTreeWorkload wl(p);
    runAll(wl);
    // The root pointer lives in the meta line directly after the log
    // (RbTreeWorkload::doSetup layout); corrupt the root's color.
    ShadowMem &shadow = wl.shadowMem();
    Addr meta = roundUp(wl.regionBase() + wl.log().sizeBytes(),
                        lineBytes);
    Addr root = shadow.readU64(meta);
    ASSERT_NE(root, 0u);
    shadow.writeU64(root + 32, 0x4242424242424242ull);
    EXPECT_FALSE(wl.validate(shadow).ok);
}

TEST(HashTable, DetectsCorruptedAllocatorCursor)
{
    WorkloadParams p = smallParams(100);
    HashTableWorkload wl(p);
    runAll(wl);
    // The allocator cursor lives in the meta line directly after the
    // undo log (see HashTableWorkload::doSetup layout).
    Addr meta = roundUp(wl.regionBase() + wl.log().sizeBytes(),
                        lineBytes);
    wl.shadowMem().writeU64(meta, wl.regionEnd() + 0x1001); // garbage
    EXPECT_FALSE(wl.validate(wl.shadowMem()).ok);
}

} // anonymous namespace
} // namespace cnvm
