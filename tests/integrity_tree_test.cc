/**
 * @file
 * Tests for the Bonsai Merkle Tree integrity layer and the recovery
 * paths it hardens: tree-hash algebra, crash-flush/recompute root
 * agreement, the multi-match-aware counter-window repair, directed
 * replay detection (tree on) vs silent replay (MAC-only), the
 * quarantine-race pre-scan determinism contract, the tree's simulated
 * cost over MAC-only, replay-dosed sweep fingerprint identity across
 * modes and job counts, and idempotent crash-during-tree-reconstruction
 * recovery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/crash_sweep.hh"
#include "core/recovery.hh"
#include "core/recovery_crash.hh"
#include "core/system.hh"
#include "integrity/integrity_tree.hh"
#include "nvm/fault_model.hh"

namespace cnvm
{
namespace
{

SystemConfig
smallConfig(DesignPoint design, unsigned txns = 25)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = txns;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    cfg.memctl.counterCacheBytes = 16 << 10;
    return cfg;
}

SystemConfig
treeConfig(DesignPoint design, unsigned txns = 25)
{
    SystemConfig cfg = smallConfig(design, txns);
    cfg.memctl.integrityMac = true;
    cfg.memctl.integrityTree = true;
    return cfg;
}

// --- tree-hash algebra ----------------------------------------------------

TEST(TreeHash, ZeroHashIsTheCombineOfZeroChildren)
{
    // The sparse-tree contract: an absent subtree at level L+1 must
    // hash exactly as eight absent subtrees at level L would.
    for (unsigned level = 0; level < treeRootLevel; ++level) {
        std::uint64_t children[treeArity];
        for (unsigned i = 0; i < treeArity; ++i)
            children[i] = treeZeroHash(level);
        EXPECT_EQ(treeCombine(children), treeZeroHash(level + 1))
            << "level " << level;
    }
}

TEST(TreeHash, SlotHashDistinguishesCounters)
{
    EXPECT_NE(treeSlotHash(0), treeSlotHash(1));
    EXPECT_NE(treeSlotHash(41), treeSlotHash(42));
    EXPECT_EQ(treeSlotHash(42), treeSlotHash(42));
}

TEST(TreeHash, CombineIsSensitiveToEveryChild)
{
    std::uint64_t children[treeArity];
    for (unsigned i = 0; i < treeArity; ++i)
        children[i] = treeSlotHash(i);
    const std::uint64_t base = treeCombine(children);
    for (unsigned i = 0; i < treeArity; ++i) {
        std::uint64_t tweaked[treeArity];
        std::copy(children, children + treeArity, tweaked);
        tweaked[i] ^= 1;
        EXPECT_NE(treeCombine(tweaked), base) << "child " << i;
    }
}

TEST(TreeHash, KnownAnswers)
{
    // Pinned values: a hash change applied consistently everywhere
    // would pass every golden digest and fingerprint, so the tree's
    // hash functions are pinned here.
    EXPECT_EQ(treeSlotHash(0), 0xa8c7f832281a39c5ull);
    EXPECT_EQ(treeSlotHash(42), 0xff3add6b3789daefull);
    EXPECT_EQ(treeSlotHash(0xfedcba9876543210ull), 0xd38edce00b234935ull);
    const std::uint64_t children[treeArity] = {
        1, 2, 3, 4, 5, 6, 7, 0x8000000000000000ull};
    EXPECT_EQ(treeCombine(children), 0xcc71a221930675a5ull);
    EXPECT_EQ(treeZeroHash(treeRootLevel), 0xc1044c0fb6498185ull);
}

TEST(TreeRoot, KnownAnswerOfAFixedImage)
{
    // A sparse counter store: neighbouring lines, lines in different
    // level-2..4 subtrees, and a line with empty slots.
    const Addr ctr_base = Addr(1) << 33;
    PersistImage img;
    for (std::uint64_t index : {0, 1, 9, 64, 1000, 4097}) {
        CounterLine values{};
        for (unsigned s = 0; s < countersPerLine; ++s)
            values[s] = index == 9 && s % 2 == 0 ? 0 : index * 8 + s + 1;
        img.drainCounters(ctr_base + index * lineBytes, values);
    }
    EXPECT_EQ(computeTreeRoot(img, ctr_base), 0xcc52c7ab1a22f011ull);
}

// --- crash flush vs recompute ---------------------------------------------

TEST(TreeRoot, CrashFlushAgreesWithBottomUpRecompute)
{
    System sys(treeConfig(DesignPoint::SCA));
    sys.run();
    sys.crashChannels();

    const PersistImage &img = sys.nvm().persistedState();
    const Addr ctr_base = sys.controller().config().counterRegionBase;
    ASSERT_NE(img.persistedTreeRoot(), nullptr);
    EXPECT_EQ(computeTreeRoot(img, ctr_base), *img.persistedTreeRoot());
    EXPECT_FALSE(img.persistedTreeLeafIndices().empty());
}

TEST(TreeRoot, ReplayBreaksTheRootAndRebuildRestoresIt)
{
    System sys(treeConfig(DesignPoint::SCA));
    sys.run();
    MemController &ctl = sys.controller();
    sys.crashChannels();

    PersistImage &img = sys.nvm().persistedState();
    const Addr ctr_base = ctl.config().counterRegionBase;
    const std::uint64_t flushed = *img.persistedTreeRoot();

    std::vector<Addr> victims = img.replayableLineAddrs();
    ASSERT_FALSE(victims.empty());
    Addr addr = victims.front();
    ASSERT_TRUE(img.replayLine(addr, ctl.counterLineAddr(addr),
                               ctl.counterSlot(addr)));
    EXPECT_TRUE(img.lineReplayed(addr));

    // The stale counter word moved a leaf, so the store no longer
    // hashes to the persisted root...
    EXPECT_NE(computeTreeRoot(img, ctr_base), flushed);

    // ...and a full rebuild converges the persisted nodes back onto
    // the (now stale) store.
    std::uint64_t rebuilt =
        rebuildTree(img, ctr_base, 0, ~Addr(0));
    EXPECT_EQ(rebuilt, *img.persistedTreeRoot());
    EXPECT_EQ(computeTreeRoot(img, ctr_base), rebuilt);
    EXPECT_NE(rebuilt, flushed);
}

// --- batched leaf hashing against the scalar fold ------------------------

/** Every persisted counter-line address of @p img, ascending. */
std::vector<Addr>
counterLineAddrs(const PersistImage &img)
{
    std::vector<Addr> addrs;
    img.forEachCounterLine(
        [&addrs](Addr addr, const CounterLine &) { addrs.push_back(addr); });
    return addrs;
}

/** The tree root by the definition: treeSlotHash and treeCombine one
 *  counter line at a time, levels reduced through ordered maps. */
std::uint64_t
scalarRoot(const PersistImage &img, Addr ctr_base)
{
    std::map<std::uint64_t, std::uint64_t> level;
    for (Addr addr : counterLineAddrs(img)) {
        const CounterLine values = img.persistedCounters(addr);
        std::uint64_t slots[treeArity];
        for (unsigned s = 0; s < treeArity; ++s)
            slots[s] = treeSlotHash(values[s]);
        level[(addr - ctr_base) / lineBytes] = treeCombine(slots);
    }
    for (unsigned l = 1; l < treeRootLevel; ++l) {
        std::map<std::uint64_t, std::array<std::uint64_t, treeArity>>
            groups;
        for (const auto &[index, hash] : level) {
            auto [it, fresh] = groups.try_emplace(index / treeArity);
            if (fresh)
                it->second.fill(treeZeroHash(l));
            it->second[index % treeArity] = hash;
        }
        level.clear();
        for (const auto &[parent, children] : groups)
            level[parent] = treeCombine(children.data());
    }
    return level.empty() ? treeZeroHash(treeRootLevel) : level.at(0);
}

/** A sparse random counter store of @p lines counter lines. */
PersistImage
randomCounterStore(std::size_t lines, std::uint64_t seed, Addr ctr_base)
{
    Random rng(seed);
    PersistImage img;
    while (img.counterLineCount() < lines) {
        // Runs of neighbours scattered over a wide index range, so
        // batches straddle level-1 and level-2 groups.
        const std::uint64_t start = rng.below(1u << 20);
        const std::uint64_t run = 1 + rng.below(11);
        for (std::uint64_t i = 0;
             i < run && img.counterLineCount() < lines; ++i) {
            CounterLine values{};
            for (auto &v : values)
                v = rng.below(4) == 0 ? 0 : rng.next();
            img.drainCounters(ctr_base + (start + i) * lineBytes, values);
        }
    }
    return img;
}

TEST(TreeRoot, BatchedHashingMatchesTheScalarFold)
{
    const Addr ctr_base = Addr(1) << 33;
    for (std::size_t lines : {1, 7, 9, 13, 100, 1001}) {
        PersistImage img = randomCounterStore(lines, 0xb47 + lines,
                                              ctr_base);
        const std::uint64_t expect = scalarRoot(img, ctr_base);
        EXPECT_EQ(computeTreeRoot(img, ctr_base), expect)
            << lines << " lines";

        // The rebuild drains the same root, and every line's level-0
        // and level-1 nodes by the same definitions.
        EXPECT_EQ(rebuildTree(img, ctr_base, 0, ~Addr(0)), expect);
        EXPECT_EQ(*img.persistedTreeRoot(), expect);
        for (Addr addr : counterLineAddrs(img)) {
            const std::uint64_t index = (addr - ctr_base) / lineBytes;
            const CounterLine values = img.persistedCounters(addr);
            std::uint64_t slots[treeArity];
            for (unsigned s = 0; s < treeArity; ++s) {
                slots[s] = treeSlotHash(values[s]);
                const std::uint64_t *node =
                    img.persistedTreeNode(0, index * treeArity + s);
                ASSERT_NE(node, nullptr);
                EXPECT_EQ(*node, slots[s]);
            }
            const std::uint64_t *leaf = img.persistedTreeNode(1, index);
            ASSERT_NE(leaf, nullptr);
            EXPECT_EQ(*leaf, treeCombine(slots));
        }
    }
}

TEST(TreeRoot, InterruptedRebuildHasDrainedOnlyTheVisitedLines)
{
    // leaf_visited is the crash-during-reconstruction point: when it
    // throws on its k-th call, exactly the first k counter lines'
    // level-0/1 nodes are on media, no interior node, and the old
    // root. Hashing eight lines at a time must not drain a line ahead
    // of its own leaf_visited.
    const Addr ctr_base = Addr(1) << 33;
    constexpr std::size_t lines = 20;
    constexpr std::uint64_t staleRoot = 0x5a1e;
    struct Crash {};
    for (std::size_t k : {1, 2, 8, 9, 16, 20}) {
        PersistImage img = randomCounterStore(lines, 0x1eaf, ctr_base);
        img.drainTreeRoot(staleRoot);
        std::size_t calls = 0;
        EXPECT_THROW(rebuildTree(img, ctr_base, 0, ~Addr(0),
                                 [&] {
                                     if (++calls == k)
                                         throw Crash{};
                                 }),
                     Crash);
        const std::vector<Addr> addrs = counterLineAddrs(img);
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            const std::uint64_t index =
                (addrs[i] - ctr_base) / lineBytes;
            const bool drained = i < k;
            EXPECT_EQ(img.persistedTreeNode(1, index) != nullptr, drained)
                << "k " << k << " line " << i;
            for (unsigned s = 0; s < treeArity; ++s)
                EXPECT_EQ(img.persistedTreeNode(0, index * treeArity + s)
                              != nullptr,
                          drained)
                    << "k " << k << " line " << i << " slot " << s;
            EXPECT_EQ(img.persistedTreeNode(2, index / treeArity),
                      nullptr);
        }
        EXPECT_EQ(*img.persistedTreeRoot(), staleRoot) << "k " << k;
    }
}

// --- batched pre-scan against lazy per-line verification ----------------

TEST(PreScan, BatchedShardsDecideEveryLineLikeALazyRead)
{
    // The pre-scan verifies a 256-line shard as one batch (gather, one
    // lineMacs call, per-line decisions); a lazy read verifies one line
    // alone. Dose the image with every fault kind so lines take each
    // path — clean, window-repaired, quarantined, replayed — and
    // require both to see every line identically.
    System sys(treeConfig(DesignPoint::SCA, 40));
    sys.run();
    MemController &ctl = sys.controller();
    sys.crashChannels();
    FaultSpec dose;
    dose.tornWrites = 3;
    dose.bitFlips = 3;
    dose.counterFaults = 8;
    dose.replays = 4;
    dose.seed = 7;
    FaultModel model(dose, ctl.config().counterRegionBase);
    model.adrDropCount(0);
    model.applyMediaFaults(sys.nvm().persistedState());

    const Workload &wl = sys.workload(0);
    RecoveredImage scanned(sys.nvm().persistedState(), ctl);
    scanned.preScan(wl.regionBase(), wl.regionEnd(), nullptr, nullptr);
    RecoveredImage lazy(sys.nvm().persistedState(), ctl);
    for (Addr a = wl.regionBase(); a < wl.regionEnd(); a += lineBytes) {
        EXPECT_EQ(lazy.line(a), scanned.line(a)) << std::hex << a;
        EXPECT_EQ(lazy.isQuarantined(a), scanned.isQuarantined(a))
            << std::hex << a;
    }
    EXPECT_EQ(lazy.detectedCorruptions(), scanned.detectedCorruptions());
    EXPECT_EQ(lazy.windowRepairs(), scanned.windowRepairs());
    EXPECT_EQ(lazy.replaysDetected(), scanned.replaysDetected());
    EXPECT_EQ(lazy.quarantinedCount(), scanned.quarantinedCount());
    EXPECT_GT(scanned.windowRepairs(), 0u);
    EXPECT_GT(scanned.replaysDetected(), 0u);
    EXPECT_GT(scanned.quarantinedCount(), scanned.replaysDetected());
}

TEST(PreScan, QuarantinesVictimsInDistinctShards)
{
    // Corrupt one line in each of several distinct 16 KB shards: the
    // pre-scan verifies and installs shard after shard, and every
    // victim must come out quarantined.
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 10);
    cfg.memctl.integrityMac = true;
    System sys(cfg);
    sys.run();
    MemController &ctl = sys.controller();
    sys.crashChannels();

    const Workload &wl = sys.workload(0);
    PersistImage &img = sys.nvm().persistedState();

    std::vector<Addr> persisted = img.dataLineAddrs();
    std::sort(persisted.begin(), persisted.end());
    std::vector<Addr> victims;
    Addr next_shard = wl.regionBase();
    for (Addr a : persisted) {
        if (a < next_shard || a >= wl.regionEnd())
            continue;
        victims.push_back(a);
        next_shard = a + (32 << 10); // skip ahead ≥ 2 shards
    }
    ASSERT_GE(victims.size(), 2u);

    LineData garbage;
    for (std::size_t i = 0; i < victims.size(); ++i) {
        garbage.fill(static_cast<std::uint8_t>(0x51 + i));
        img.corruptDataLine(victims[i], garbage);
    }

    RecoveredImage image(img, ctl);
    image.preScan(wl.regionBase(), wl.regionEnd(), nullptr, nullptr);

    EXPECT_EQ(image.quarantinedCount(), victims.size());
    for (Addr a : victims)
        EXPECT_TRUE(image.isQuarantined(a)) << std::hex << a;
}

// --- multi-match window repair --------------------------------------------

TEST(RepairWindow, SingleMatchIsReturnedWithoutConfirmation)
{
    auto verifies = [](std::uint64_t c) { return c == 103; };
    auto got = repairCounterWindow(100, 8, verifies, {});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 103u);
}

TEST(RepairWindow, NoMatchReturnsNothing)
{
    auto verifies = [](std::uint64_t) { return false; };
    EXPECT_FALSE(repairCounterWindow(100, 8, verifies, {}).has_value());
}

TEST(RepairWindow, TwoMatchesWithoutTreeAreAmbiguous)
{
    // The truncated-MAC collision: two counters in the window verify.
    // The legacy nearest-first search would silently "repair" to 102;
    // without a confirming tree the search must refuse to guess.
    auto verifies = [](std::uint64_t c) { return c == 102 || c == 96; };
    EXPECT_FALSE(repairCounterWindow(100, 8, verifies, {}).has_value());
}

TEST(RepairWindow, TreeConfirmationBreaksTheTie)
{
    auto verifies = [](std::uint64_t c) { return c == 102 || c == 96; };

    // The tree votes for the farther candidate: it wins anyway.
    auto far = repairCounterWindow(100, 8, verifies,
                                   [](std::uint64_t c) { return c == 96; });
    ASSERT_TRUE(far.has_value());
    EXPECT_EQ(*far, 96u);

    // Both confirmed (degenerate tree): the nearest candidate wins.
    auto near = repairCounterWindow(100, 8, verifies,
                                    [](std::uint64_t) { return true; });
    ASSERT_TRUE(near.has_value());
    EXPECT_EQ(*near, 102u);

    // Confirmation that rejects both: still ambiguous.
    EXPECT_FALSE(repairCounterWindow(100, 8, verifies,
                                     [](std::uint64_t) { return false; })
                     .has_value());
}

// --- directed replay detection --------------------------------------------

TEST(ReplayDetection, TreeCatchesAStaleTripleTheMacAccepts)
{
    System sys(treeConfig(DesignPoint::SCA));
    sys.run();
    MemController &ctl = sys.controller();
    sys.crashChannels();

    PersistImage &img = sys.nvm().persistedState();
    std::vector<Addr> victims = img.replayableLineAddrs();
    ASSERT_FALSE(victims.empty());
    Addr addr = victims.front();
    ASSERT_TRUE(img.replayLine(addr, ctl.counterLineAddr(addr),
                               ctl.counterSlot(addr)));

    RecoveredImage image(img, ctl);
    EXPECT_TRUE(image.treeRootMismatch());
    image.line(addr);
    EXPECT_EQ(image.replaysDetected(), 1u);
    EXPECT_TRUE(image.isQuarantined(addr));
    // The triple is stale-but-valid: the MAC never fired, so this is
    // not double-counted as a detected corruption.
    EXPECT_EQ(image.detectedCorruptions(), 0u);
}

TEST(ReplayDetection, MacOnlyConsumesTheSameReplaySilently)
{
    // The negative control: identical attack, tree off. Every
    // per-line check passes and recovery never notices.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.memctl.integrityMac = true;
    System sys(cfg);
    sys.run();
    MemController &ctl = sys.controller();
    sys.crashChannels();

    PersistImage &img = sys.nvm().persistedState();
    std::vector<Addr> victims = img.replayableLineAddrs();
    ASSERT_FALSE(victims.empty());
    Addr addr = victims.front();
    ASSERT_TRUE(img.replayLine(addr, ctl.counterLineAddr(addr),
                               ctl.counterSlot(addr)));

    RecoveredImage image(img, ctl);
    EXPECT_FALSE(image.treeRootMismatch());
    image.line(addr);
    EXPECT_EQ(image.replaysDetected(), 0u);
    EXPECT_EQ(image.detectedCorruptions(), 0u);
    EXPECT_EQ(image.quarantinedCount(), 0u);
}

// --- the tree's simulated cost ---------------------------------------------

TEST(TreeOverhead, TreeCostsTicksAndBytesOverMacOnly)
{
    // Tree persistence costs simulated time and NVM writes over the
    // MACs alone, and the lazy leaf updates coalesce. Orderings, not
    // values: work that cuts the tree's cost moves the numbers without
    // editing this test.
    for (DesignPoint d : {DesignPoint::FCA, DesignPoint::SCA}) {
        SystemConfig cfg;
        cfg.design = d;
        cfg.workload = WorkloadKind::ArraySwap;
        cfg.wl.regionBytes = 2 << 20;
        cfg.wl.txnTarget = 100;
        cfg.wl.setupFill = 0.5;
        cfg.memctl.integrityMac = true;
        System mac_only(cfg);
        Tick mac_ticks = mac_only.run().endTick;

        cfg.memctl.integrityTree = true;
        System tree(cfg);
        Tick tree_ticks = tree.run().endTick;

        EXPECT_GT(tree_ticks, mac_ticks) << designName(d);
        EXPECT_GT(tree.nvmBytesWritten(), mac_only.nvmBytesWritten())
            << designName(d);
        EXPECT_GT(tree.controller().treeCoalesces.value(), 0)
            << designName(d);
    }
}

// --- replay-dosed sweeps --------------------------------------------------

TEST(ReplaySweep, TreeOnNothingSilentAndReplaysCaught)
{
    SweepOptions opt;
    opt.points = 20;
    opt.mode = SweepMode::Fork;
    opt.faults = FaultSpec::allKindsWithReplays(7);
    SweepResult r = runSweep(treeConfig(DesignPoint::SCA), opt);

    EXPECT_GT(r.totalOf(&SweepPoint::replayedLines), 0u);
    EXPECT_GT(r.totalOf(&SweepPoint::replaysDetected), 0u);
    EXPECT_EQ(r.silentPoints(), 0u);
    EXPECT_EQ(r.silentReplayPoints(), 0u);
}

TEST(ReplaySweep, MacOnlyLetsReplaysThroughSilently)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.memctl.integrityMac = true;

    SweepOptions opt;
    opt.points = 20;
    opt.mode = SweepMode::Fork;
    opt.faults = FaultSpec::allKindsWithReplays(7);
    SweepResult r = runSweep(cfg, opt);

    EXPECT_GT(r.totalOf(&SweepPoint::replayedLines), 0u);
    EXPECT_EQ(r.totalOf(&SweepPoint::replaysDetected), 0u);
    EXPECT_GT(r.silentReplayPoints(), 0u);
}

TEST(ReplaySweep, FingerprintIdenticalAcrossModesAndJobs)
{
    // The tree-enabled extension of FaultSweep's contract: a
    // replay-dosed sweep fingerprints byte-identically in Replay and
    // Fork mode at any job count.
    SystemConfig cfg = treeConfig(DesignPoint::SCA);

    SweepOptions ref_opt;
    ref_opt.points = 8;
    ref_opt.faults = FaultSpec::allKindsWithReplays(42);
    std::string ref = runSweep(cfg, ref_opt).fingerprint();
    ASSERT_FALSE(ref.empty());
    EXPECT_NE(ref.find("+f("), std::string::npos);
    // Replayed lines annotate the fingerprint (the `p` atom).
    EXPECT_NE(ref.find("p"), std::string::npos);

    for (SweepMode mode : {SweepMode::Replay, SweepMode::Fork}) {
        for (unsigned jobs : {1u, 4u}) {
            SweepOptions opt = ref_opt;
            opt.mode = mode;
            opt.jobs = jobs;
            EXPECT_EQ(runSweep(cfg, opt).fingerprint(), ref)
                << sweepModeName(mode) << " jobs=" << jobs;
        }
    }
}

// --- crash during tree reconstruction -------------------------------------

TEST(TreeRecrash, InterruptedReconstructionIsIdempotent)
{
    // Counter-fault-dosed crash-during-recovery sweep with the tree
    // armed. Counter faults break the persisted root, and the
    // rollback flavor is window-repairable, so reference recoveries
    // that survive the quarantine gate reach the tree reconstruction
    // — putting TreeRebuildLeaf interruption points into the plan. An
    // interrupted-then-rerun reconstruction must then converge to the
    // uninterrupted reference at every point.
    FaultSpec dose;
    dose.counterFaults = 2;
    dose.seed = 1;

    RecoveryCrashOptions opt;
    opt.points = 12;
    opt.images = 6;
    opt.faults = dose;
    RecoveryCrashResult r =
        runRecoveryCrashSweep(treeConfig(DesignPoint::SCA), opt);

    EXPECT_GT(r.firedPoints(), 0u);
    EXPECT_EQ(r.divergentPoints(), 0u);
    EXPECT_NE(r.fingerprint().find("treeleaf"), std::string::npos)
        << r.fingerprint();
}

} // anonymous namespace
} // namespace cnvm
