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
#include <string>
#include <vector>

#include "core/crash_sweep.hh"
#include "core/recovery.hh"
#include "core/recovery_crash.hh"
#include "core/system.hh"
#include "integrity/integrity_tree.hh"
#include "nvm/fault_model.hh"
#include "runner/runner.hh"

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

// --- crash flush vs recompute ---------------------------------------------

TEST(TreeRoot, CrashFlushAgreesWithBottomUpRecompute)
{
    System sys(treeConfig(DesignPoint::SCA));
    sys.run();
    sys.controller().crash();

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
    ctl.crash();

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
    ctl.crash();

    PersistImage &img = sys.nvm().persistedState();
    std::vector<Addr> victims = img.replayableLineAddrs();
    ASSERT_FALSE(victims.empty());
    Addr addr = victims.front();
    ASSERT_TRUE(img.replayLine(addr, ctl.counterLineAddr(addr),
                               ctl.counterSlot(addr)));

    RecoveredImage image(sys.nvm(), ctl);
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
    ctl.crash();

    PersistImage &img = sys.nvm().persistedState();
    std::vector<Addr> victims = img.replayableLineAddrs();
    ASSERT_FALSE(victims.empty());
    Addr addr = victims.front();
    ASSERT_TRUE(img.replayLine(addr, ctl.counterLineAddr(addr),
                               ctl.counterSlot(addr)));

    RecoveredImage image(sys.nvm(), ctl);
    EXPECT_FALSE(image.treeRootMismatch());
    image.line(addr);
    EXPECT_EQ(image.replaysDetected(), 0u);
    EXPECT_EQ(image.detectedCorruptions(), 0u);
    EXPECT_EQ(image.quarantinedCount(), 0u);
}

// --- quarantine-race regression -------------------------------------------

TEST(QuarantineRace, ParallelPreScanQuarantinesAcrossShardsLikeSerial)
{
    // Regression for the parallel pre-scan data-race hazard: corrupt
    // lines in several distinct 16 KB shards so multiple workers
    // produce quarantine verdicts concurrently, then require the
    // pooled scan's bookkeeping — quarantine set included — to be
    // identical to the serial reference. Run under TSan, this is the
    // test that fails if any shard ever touches shared state directly
    // instead of handing verdicts to the merge.
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 10);
    cfg.memctl.integrityMac = true;
    System sys(cfg);
    sys.run();
    MemController &ctl = sys.controller();
    ctl.crash();

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

    RecoveredImage serial(sys.nvm(), ctl);
    serial.preScan(wl.regionBase(), wl.regionEnd(), nullptr, nullptr);

    WorkPool pool(4);
    RecoveredImage pooled(sys.nvm(), ctl);
    pooled.preScan(wl.regionBase(), wl.regionEnd(), &pool, nullptr);

    EXPECT_EQ(serial.quarantinedCount(), victims.size());
    EXPECT_EQ(pooled.quarantinedCount(), serial.quarantinedCount());
    EXPECT_EQ(pooled.detectedCorruptions(), serial.detectedCorruptions());
    EXPECT_EQ(pooled.windowRepairs(), serial.windowRepairs());
    EXPECT_EQ(pooled.replaysDetected(), serial.replaysDetected());
    for (Addr a : victims) {
        EXPECT_TRUE(serial.isQuarantined(a)) << std::hex << a;
        EXPECT_TRUE(pooled.isQuarantined(a)) << std::hex << a;
    }
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
    // The tree-enabled extension of the PR-5 contract: a replay-dosed
    // sweep fingerprints byte-identically in Replay and Fork mode at
    // any jobs / recovery-jobs combination.
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
            opt.recoveryJobs = jobs;
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
    opt.recoveryJobs = 2;
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
