/**
 * @file
 * Unit tests for the recovery engine: decryption of the persisted
 * image, undo-log rollback decisions, and detection of torn state.
 * Torn states are constructed directly through the NVM functional API
 * to exercise each recovery branch deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>

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
smallConfig(DesignPoint design, unsigned txns = 20)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = txns;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    return cfg;
}

TEST(RecoveredImage, ReadsBackInitializedState)
{
    System sys(smallConfig(DesignPoint::SCA, 0));
    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    // The workload's setup state decrypts to the shadow content.
    const ShadowMem &shadow = sys.workload(0).shadowMem();
    bool all_equal = true;
    shadow.table().forEach([&](Addr addr, const LineData &expect) {
        if (image.line(addr) != expect)
            all_equal = false;
    });
    EXPECT_TRUE(all_equal);
}

TEST(RecoveredImage, NeverWrittenLinesAreZero)
{
    System sys(smallConfig(DesignPoint::SCA, 0));
    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    EXPECT_EQ(image.line(0xdead0000), LineData{});
    EXPECT_EQ(image.readU64(0xdead0040), 0u);
}

TEST(RecoveredImage, WritesOverlayReads)
{
    System sys(smallConfig(DesignPoint::SCA, 0));
    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    std::uint64_t v = 0x1234;
    image.write(0x10000, &v, sizeof(v));
    EXPECT_EQ(image.readU64(0x10000), 0x1234u);
}

TEST(RecoveredImage, CrossLineReads)
{
    System sys(smallConfig(DesignPoint::SCA, 0));
    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    std::uint8_t buf[200];
    image.write(0x10020, buf, 0); // no-op-size guard not needed; write real
    std::uint8_t data[200];
    for (unsigned i = 0; i < 200; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    image.write(0x10020, data, 200);
    std::uint8_t back[200];
    image.read(0x10020, 200, back);
    EXPECT_EQ(std::memcmp(data, back, 200), 0);
}

TEST(RecoveredImage, TornLineDecryptsToGarbage)
{
    // Manufacture the Figure-4 state: ciphertext under a new counter,
    // counter store still holding the old one.
    System sys(smallConfig(DesignPoint::SCA, 0));
    MemController &ctl = sys.controller();
    PersistImage &img = sys.nvm().persistedState();

    LineData plain;
    plain.fill(0x77);
    Addr addr = 0x40000;
    // Encrypt with counter 14 but persist counter 10.
    img.drainData(addr, ctl.engine().encrypt(addr, 14, plain));
    CounterLine counters = img.persistedCounters(ctl.counterLineAddr(addr));
    counters[ctl.counterSlot(addr)] = 10;
    img.drainCounters(ctl.counterLineAddr(addr), counters);

    RecoveredImage image(img, ctl);
    EXPECT_NE(image.line(addr), plain);

    // Fix the counter: now it decrypts.
    counters[ctl.counterSlot(addr)] = 14;
    img.drainCounters(ctl.counterLineAddr(addr), counters);
    RecoveredImage fixed(img, ctl);
    EXPECT_EQ(fixed.line(addr), plain);
}

// --- recovery engine branches ---------------------------------------------

class RecoveryBranchTest : public ::testing::Test
{
  protected:
    RecoveryBranchTest() : sys(smallConfig(DesignPoint::SCA, 5))
    {
        sys.run(); // all five txns commit; queues drain
        sys.crashChannels();
    }

    /** Rewrites a log header field post-crash (simulated torn state).
     *  Re-encrypts the header line with its persisted counter so only
     *  the targeted field changes. */
    void
    rewriteHeaderField(Addr field_addr, std::uint64_t value)
    {
        MemController &ctl = sys.controller();
        PersistImage &img = sys.nvm().persistedState();
        const LogLayout &log = sys.workload(0).log();
        Addr line = log.headerAddr();
        std::uint64_t counter =
            img.persistedCounters(ctl.counterLineAddr(line))
                [ctl.counterSlot(line)];
        LineData plain = ctl.engine().decrypt(
            line, counter, *img.persistedLine(line));
        std::memcpy(plain.data() + (field_addr - line), &value, 8);
        img.drainData(line, ctl.engine().encrypt(line, counter, plain));
    }

    System sys;
};

TEST_F(RecoveryBranchTest, CleanStateRecoversToLastCommit)
{
    RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
    RecoveryReport report = engine.recover(sys.workload(0));
    EXPECT_TRUE(report.consistent) << report.detail;
    EXPECT_FALSE(report.rolledBack);
    EXPECT_TRUE(report.digestChecked);
    EXPECT_EQ(report.committedTxns, 5u);
    EXPECT_EQ(report.reason, RecoveryFailure::None);
}

TEST_F(RecoveryBranchTest, GarbageValidFlagIsDetected)
{
    rewriteHeaderField(sys.workload(0).log().validAddr(),
                       0x4141414141414141ull);
    RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
    RecoveryReport report = engine.recover(sys.workload(0));
    EXPECT_FALSE(report.consistent);
    // The machine-checkable reason distinguishes the torn commit flag
    // from an undecryptable header; the string is just for humans.
    EXPECT_EQ(report.reason, RecoveryFailure::TornCommitFlag);
    EXPECT_NE(report.detail.find("valid flag"), std::string::npos);
}

TEST_F(RecoveryBranchTest, GarbageMagicIsDetected)
{
    rewriteHeaderField(sys.workload(0).log().magicAddr(), 0x999);
    RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
    RecoveryReport report = engine.recover(sys.workload(0));
    EXPECT_FALSE(report.consistent);
    EXPECT_EQ(report.reason, RecoveryFailure::LogHeaderUnreadable);
    EXPECT_NE(report.detail.find("header"), std::string::npos);
}

TEST(RecoveryFailureNames, AreDistinctAndStable)
{
    const RecoveryFailure all[] = {
        RecoveryFailure::None, RecoveryFailure::LogHeaderUnreadable,
        RecoveryFailure::TornCommitFlag,
        RecoveryFailure::LogDescriptorInvalid,
        RecoveryFailure::QuarantinedLines,
        RecoveryFailure::StructureInvalid,
        RecoveryFailure::NoCommittedPrefix,
    };
    for (RecoveryFailure a : all) {
        EXPECT_STRNE(recoveryFailureName(a), "?");
        for (RecoveryFailure b : all) {
            if (a != b) {
                EXPECT_STRNE(recoveryFailureName(a),
                             recoveryFailureName(b));
            }
        }
    }
}

TEST_F(RecoveryBranchTest, ValidLogWithBadChecksumIsIgnored)
{
    // valid=kValid but the checksum does not match the backups: the
    // prepare stage never finished, so recovery must NOT roll back and
    // the state still matches the last commit.
    rewriteHeaderField(sys.workload(0).log().validAddr(),
                       LogLayout::kValid);
    rewriteHeaderField(sys.workload(0).log().checksumAddr(), 0x1);
    RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
    RecoveryReport report = engine.recover(sys.workload(0));
    EXPECT_TRUE(report.consistent) << report.detail;
    EXPECT_FALSE(report.rolledBack);
    EXPECT_EQ(report.committedTxns, 5u);
    EXPECT_EQ(report.reason, RecoveryFailure::None);
}

TEST(Recovery, RollbackRestoresPreTxnState)
{
    // Crash mid-run, then check that when recovery does roll back, the
    // recovered digest matches a strictly earlier commit point.
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 30);
    Tick total = System(cfg).run().endTick;

    unsigned rollbacks_seen = 0;
    for (int i = 1; i <= 20; ++i) {
        System sys(cfg);
        RunResult result = sys.runWithCrashAt(total * i / 21);
        if (!result.crashed)
            continue;
        RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
        RecoveryReport report = engine.recover(sys.workload(0));
        ASSERT_TRUE(report.consistent) << report.detail;
        if (report.rolledBack)
            ++rollbacks_seen;
        ASSERT_LE(report.committedTxns, 30u);
    }
    // Crashing at 20 points through a run of undo-logged transactions
    // must hit at least one in-flight transaction.
    EXPECT_GT(rollbacks_seen, 0u);
}

TEST(Recovery, NoEncryptionRecoversPlainly)
{
    SystemConfig cfg = smallConfig(DesignPoint::NoEncryption, 10);
    System sys(cfg);
    sys.run();
    sys.crashChannels();
    std::string why;
    EXPECT_TRUE(sys.recoveredConsistently(&why)) << why;
}

TEST(Recovery, MultiCoreRecoversEveryRegion)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 10);
    cfg.numCores = 4;
    Tick total = System(cfg).run().endTick;
    System sys(cfg);
    RunResult result = sys.runWithCrashAt(total / 2);
    ASSERT_TRUE(result.crashed);
    auto reports = sys.recoverAll();
    ASSERT_EQ(reports.size(), 4u);
    for (const auto &report : reports)
        EXPECT_TRUE(report.consistent) << report.detail;
}

// --- integrity repair window and quarantine/rollback regressions ----------

SystemConfig
integrityConfig(DesignPoint design, unsigned txns = 5)
{
    SystemConfig cfg = smallConfig(design, txns);
    cfg.memctl.integrityMac = true;
    return cfg;
}

class IntegrityRepairTest : public ::testing::Test
{
  protected:
    IntegrityRepairTest() : sys(integrityConfig(DesignPoint::SCA, 5))
    {
        sys.run();
        sys.crashChannels();
    }

    /** Plants a counter-rollback victim: data, MAC and cipher agree at
     *  @p true_counter, but the counter store says @p stored_counter. */
    void
    plantLine(Addr addr, std::uint64_t stored_counter,
              std::uint64_t true_counter, const LineData &plain)
    {
        MemController &ctl = sys.controller();
        PersistImage &img = sys.nvm().persistedState();
        LineData cipher = ctl.engine().encrypt(addr, true_counter, plain);
        img.drainData(addr, cipher, true_counter);
        img.drainMac(
            addr, ctl.engine().lineMac(addr, true_counter, cipher));
        CounterLine counters =
            img.persistedCounters(ctl.counterLineAddr(addr));
        counters[ctl.counterSlot(addr)] = stored_counter;
        img.drainCounters(ctl.counterLineAddr(addr), counters);
    }

    /** Flips a persisted ciphertext byte under an unchanged MAC: no
     *  counter in any window verifies, so the line must quarantine. */
    void
    corruptBeyondRepair(Addr line_addr)
    {
        PersistImage &img = sys.nvm().persistedState();
        const LineData *cipher = img.persistedLine(line_addr);
        ASSERT_NE(cipher, nullptr);
        LineData bad = *cipher;
        bad[0] ^= 0xff;
        img.drainData(line_addr, bad,
                      img.persistedCipherCounter(line_addr));
    }

    /** Rewrites one u64 field post-crash, keeping the line's MAC
     *  consistent so only the targeted field changes. */
    void
    rewriteFieldWithMac(Addr field_addr, std::uint64_t value)
    {
        MemController &ctl = sys.controller();
        PersistImage &img = sys.nvm().persistedState();
        Addr line = lineAlign(field_addr);
        std::uint64_t counter =
            img.persistedCounters(ctl.counterLineAddr(line))
                [ctl.counterSlot(line)];
        const LineData *stored = img.persistedLine(line);
        ASSERT_NE(stored, nullptr);
        LineData plain = ctl.engine().decrypt(line, counter, *stored);
        std::memcpy(plain.data() + (field_addr - line), &value, 8);
        LineData cipher = ctl.engine().encrypt(line, counter, plain);
        img.drainData(line, cipher, counter);
        img.drainMac(
            line, ctl.engine().lineMac(line, counter, cipher));
    }

    /** First initialized line of the workload's region that is
     *  outside its log. */
    Addr
    firstDataLine()
    {
        const Workload &wl = sys.workload(0);
        const LogLayout &log = wl.log();
        Addr target = 0;
        wl.shadowMem().table().forEach([&](Addr a, const LineData &) {
            bool in_log = a >= log.base && a < log.base + log.sizeBytes();
            if (target == 0 && !in_log)
                target = a;
        });
        return target;
    }

    System sys;
};

TEST_F(IntegrityRepairTest, WindowRepairNearCounterMax)
{
    // A stored counter within the repair window of UINT64_MAX: the
    // outward search must clamp at the type's edge instead of wrapping
    // (counter + window overflowing to a tiny value disabled the whole
    // upward search and condemned repairable lines).
    LineData plain;
    plain.fill(0x5a);
    Addr addr = firstDataLine();
    plantLine(addr, UINT64_MAX - 1, UINT64_MAX - 5, plain);

    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    EXPECT_EQ(image.line(addr), plain);
    EXPECT_EQ(image.windowRepairs(), 1u);
    EXPECT_EQ(image.quarantinedCount(), 0u);
}

TEST_F(IntegrityRepairTest, WindowRepairUpwardAtCounterMax)
{
    // True counter above the stored one, right at the edge: the upward
    // distance clamps to UINT64_MAX - stored and still finds it.
    LineData plain;
    plain.fill(0xa5);
    Addr addr = firstDataLine();
    plantLine(addr, UINT64_MAX - 2, UINT64_MAX, plain);

    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    EXPECT_EQ(image.line(addr), plain);
    EXPECT_EQ(image.windowRepairs(), 1u);
}

TEST_F(IntegrityRepairTest, WindowRepairNearCounterZero)
{
    // Stored counter near zero: the downward distance clamps to the
    // stored value (no wrap to huge counters), the upward search still
    // spans the full window.
    LineData plain;
    plain.fill(0x3c);
    Addr addr = firstDataLine();
    plantLine(addr, 2, 30, plain);

    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    EXPECT_EQ(image.line(addr), plain);
    EXPECT_EQ(image.windowRepairs(), 1u);
    EXPECT_EQ(image.quarantinedCount(), 0u);
}

TEST_F(IntegrityRepairTest, WindowRepairDownward)
{
    // Counter-store ran ahead of the data (rollback case): the true
    // counter sits below the stored one, inside the window.
    LineData plain;
    plain.fill(0x11);
    Addr addr = firstDataLine();
    plantLine(addr, 1000, 1000 - 40, plain);

    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    EXPECT_EQ(image.line(addr), plain);
    EXPECT_EQ(image.windowRepairs(), 1u);
}

TEST_F(IntegrityRepairTest, BeyondWindowQuarantines)
{
    // One generation past the window in both directions: unrepairable,
    // the line reads as zeros and stays quarantined.
    const unsigned window = sys.controller().config().macRepairWindow;
    LineData plain;
    plain.fill(0x77);
    Addr addr = firstDataLine();
    plantLine(addr, 2000, 2000 + window + 1, plain);

    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    EXPECT_EQ(image.line(addr), LineData{});
    EXPECT_EQ(image.windowRepairs(), 0u);
    EXPECT_EQ(image.detectedCorruptions(), 1u);
    EXPECT_TRUE(image.isQuarantined(addr));
}

TEST_F(IntegrityRepairTest, QuarantinedBackupRestoresNothing)
{
    // The stale-quarantine regression: a valid undo log whose backup
    // line is corrupt beyond repair, with a stored checksum that
    // matches the backup reading as zeros (the checksum walk is what
    // quarantines the backup). Rollback must read the backup before
    // consulting the quarantine, then restore *nothing* from it: the
    // target keeps its own quarantine and content, and recovery
    // reports BOTH lines unrecoverable. The pre-fix code asked the
    // quarantine first (a stale "clean" verdict), wrote the zeroed
    // backup over the target and lifted the target's quarantine —
    // one silently zeroed line and an undercount of one.
    const LogLayout &log = sys.workload(0).log();
    Addr target = firstDataLine();
    corruptBeyondRepair(target);
    corruptBeyondRepair(log.backupAddr(0));

    rewriteFieldWithMac(log.txnIdAddr(), 1);
    rewriteFieldWithMac(log.countAddr(), 1);
    rewriteFieldWithMac(log.descAddr(0), target);

    // The checksum the prepare stage would have stored, as recovery
    // will recompute it: through an image where the corrupt backup
    // quarantines and reads zeros.
    std::uint64_t sum;
    {
        RecoveredImage probe(sys.nvm().persistedState(), sys.controller());
        sum = logChecksum(probe, log, 1, 1);
        ASSERT_TRUE(probe.isQuarantined(log.backupAddr(0)));
    }
    rewriteFieldWithMac(log.checksumAddr(), sum);
    rewriteFieldWithMac(log.validAddr(), LogLayout::kValid);

    RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
    RecoveryReport report = engine.recover(sys.workload(0));
    EXPECT_FALSE(report.consistent);
    EXPECT_EQ(report.reason, RecoveryFailure::QuarantinedLines);
    EXPECT_TRUE(report.rolledBack);
    EXPECT_EQ(report.detectedCorruptions, 2u);
    EXPECT_EQ(report.unrecoverableLines, 2u);
    EXPECT_EQ(report.repairedLines, 0u);
}

TEST_F(IntegrityRepairTest, IntactBackupRestoresQuarantinedTarget)
{
    // The positive direction of the same branch: corrupt only the
    // target; the intact backup rolls over it, lifts its quarantine,
    // and the line counts as repaired, not unrecoverable.
    const LogLayout &log = sys.workload(0).log();
    Addr target = firstDataLine();
    corruptBeyondRepair(target);

    LineData backup;
    backup.fill(0x42);
    {
        // Persist a known-good backup line (content + MAC).
        MemController &ctl = sys.controller();
        PersistImage &img = sys.nvm().persistedState();
        Addr baddr = log.backupAddr(0);
        std::uint64_t counter =
            img.persistedCounters(ctl.counterLineAddr(baddr))
                [ctl.counterSlot(baddr)];
        LineData cipher = ctl.engine().encrypt(baddr, counter, backup);
        img.drainData(baddr, cipher, counter);
        img.drainMac(baddr, ctl.engine().lineMac(baddr, counter, cipher));
    }

    rewriteFieldWithMac(log.txnIdAddr(), 1);
    rewriteFieldWithMac(log.countAddr(), 1);
    rewriteFieldWithMac(log.descAddr(0), target);
    std::uint64_t sum;
    {
        RecoveredImage probe(sys.nvm().persistedState(), sys.controller());
        sum = logChecksum(probe, log, 1, 1);
    }
    rewriteFieldWithMac(log.checksumAddr(), sum);
    rewriteFieldWithMac(log.validAddr(), LogLayout::kValid);

    RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
    RecoveryReport report = engine.recover(sys.workload(0));
    EXPECT_TRUE(report.rolledBack);
    EXPECT_EQ(report.detectedCorruptions, 1u);
    EXPECT_EQ(report.unrecoverableLines, 0u);
    EXPECT_EQ(report.repairedLines, 1u);
    // The rolled-back array no longer matches any committed digest
    // (the backup content is synthetic), but the corruption itself is
    // fully healed — nothing remains quarantined.
    EXPECT_NE(report.reason, RecoveryFailure::QuarantinedLines);
}

TEST(DegradedRecovery, EarlyExitKeepsAReplayedLineQuarantined)
{
    // A degraded write-back recovery that stops at step 1 must still
    // tombstone its quarantined lines. Here the log header is corrupt
    // beyond repair, so recovery fails with an unreadable header, and
    // a region line carries a replayed triple. The next power failure
    // rebuilds the tree from the counter store, which then vouches for
    // the replayed counter: without its tombstone the stale triple
    // verifies again and the line silently leaves quarantine.
    SystemConfig cfg = integrityConfig(DesignPoint::SCA);
    cfg.memctl.integrityTree = true;
    System sys(cfg);
    sys.run();
    sys.crashChannels();

    const MemController &ctl = sys.controller();
    PersistImage &img = sys.nvm().persistedState();
    const Workload &wl = sys.workload(0);
    const Addr header = wl.log().headerAddr();

    Addr victim = 0;
    for (Addr a : img.replayableLineAddrs()) {
        if (a != header && wl.inRegion(a)
            && img.replayLine(a, ctl.counterLineAddr(a),
                              ctl.counterSlot(a))) {
            victim = a;
            break;
        }
    }
    ASSERT_NE(victim, 0u);

    // Flip a header ciphertext byte under its unchanged MAC.
    LineData bad = *img.persistedLine(header);
    bad[0] ^= 0xff;
    img.drainData(header, bad, img.persistedCipherCounter(header));

    RecoveryOptions opt;
    opt.degraded = true;
    opt.commitTo = &img;
    auto quarantined = [victim](const RecoveryReport &r) {
        return std::find(r.quarantinedLines.begin(),
                         r.quarantinedLines.end(), victim)
            != r.quarantinedLines.end();
    };
    RecoveryReport first = RecoveryEngine(img, ctl).recover(wl, nullptr, opt);
    ASSERT_EQ(first.reason, RecoveryFailure::LogHeaderUnreadable);
    ASSERT_TRUE(quarantined(first));

    // The next power failure's flush: the tree rebuilt, root last,
    // over the counter store recovery left behind.
    rebuildTree(img, ctl.config().counterRegionBase, 0, ~Addr(0));

    RecoveryReport second =
        RecoveryEngine(img, ctl).recover(wl, nullptr, opt);
    EXPECT_TRUE(quarantined(second));
}

TEST(RecoveryCrash, InterruptedRecoveryConverges)
{
    // The idempotence invariant, sweep-sized down for a unit test:
    // interrupted write-back recovery attempts followed by a complete
    // one must converge to the uninterrupted reference at every
    // planned interruption point, media faults dosed.
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = 20;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.memctl.integrityMac = true;

    RecoveryCrashOptions opt;
    opt.points = 8;
    opt.images = 4;
    opt.faults = FaultSpec::allKinds(1);
    RecoveryCrashResult result = runRecoveryCrashSweep(cfg, opt);

    ASSERT_GT(result.images, 0u);
    ASSERT_FALSE(result.points.empty());
    EXPECT_GT(result.firedPoints(), 0u);
    EXPECT_EQ(result.divergentPoints(), 0u)
        << result.fingerprint();
}

TEST(RecoveryCrash, SweepDeterministicAcrossJobs)
{
    // The whole family — capture, reference, interruption points — is
    // a pure function of (config, seeds): byte-identical fingerprints
    // serial and parallel, on every crash-handling design.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        SystemConfig cfg;
        cfg.design = d;
        cfg.workload = WorkloadKind::ArraySwap;
        cfg.wl.regionBytes = 256 << 10;
        cfg.wl.txnTarget = 20;
        cfg.wl.computePerTxn = 100;
        cfg.wl.recordDigests = true;
        cfg.memctl.integrityMac = true;

        RecoveryCrashOptions serial;
        serial.points = 6;
        serial.images = 4;
        serial.faults = FaultSpec::allKinds(1);
        std::string fp1 = runRecoveryCrashSweep(cfg, serial).fingerprint();
        EXPECT_FALSE(fp1.empty()) << designName(d);

        RecoveryCrashOptions parallel = serial;
        parallel.jobs = 4;
        EXPECT_EQ(runRecoveryCrashSweep(cfg, parallel).fingerprint(), fp1)
            << designName(d);
    }
}

TEST(Recovery, UnsafeDesignEventuallyFails)
{
    SystemConfig cfg = smallConfig(DesignPoint::Unsafe, 30);
    Tick total = System(cfg).run().endTick;
    unsigned failures = 0;
    for (int i = 1; i <= 10; ++i) {
        System sys(cfg);
        RunResult result = sys.runWithCrashAt(total * i / 11);
        if (!result.crashed)
            continue;
        std::string why;
        if (!sys.recoveredConsistently(&why))
            ++failures;
    }
    EXPECT_GT(failures, 0u);
}

} // anonymous namespace
} // namespace cnvm
