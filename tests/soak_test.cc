/**
 * @file
 * Tests for the crash-chain soak harness: the resume-after-recovery
 * lifecycle (System resume construction, controller re-seed, degraded
 * recovery), the SoakOracle's cumulative invariants, quarantine
 * persistence across cycles, chain determinism across worker counts,
 * and the headline multi-design soak gate.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "common/hash.hh"
#include "core/soak.hh"

namespace cnvm
{
namespace
{

SystemConfig
smallConfig(DesignPoint design)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = 25;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    cfg.memctl.counterCacheBytes = 16 << 10;
    // A chain needs every clean shutdown to recover: Unsafe defers
    // counter write-backs past the ADR drain, so without the MAC's
    // window repair even an uninterrupted run leaves the log header
    // torn on the media. Arm the MAC uniformly so all four designs
    // face the same configuration.
    cfg.memctl.integrityMac = true;
    return cfg;
}

SoakOptions
smallSoak(unsigned cycles)
{
    SoakOptions opt;
    opt.cycles = cycles;
    opt.txnsPerCycle = 8;
    opt.seed = 7;
    return opt;
}

/** Fold per-report recovered digests the way SoakChainResult does. */
std::uint64_t
foldDigests(const std::vector<RecoveryReport> &reports)
{
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < reports.size(); ++i)
        d = fnv1aU64(reports[i].recoveredDigest,
                     i == 0 ? fnvOffsetBasis : d);
    return d;
}

// --- clean-chain identity control -----------------------------------------

class CleanChainIdentity : public ::testing::TestWithParam<DesignPoint>
{};

/**
 * The zero-fault control: a chain of crash→recover→resume cycles must
 * end at exactly the state an uninterrupted run of the same final
 * transaction target reaches — same committed counts, same recovered
 * logical-content digest, nothing quarantined, no resets.
 */
TEST_P(CleanChainIdentity, MatchesUninterruptedRun)
{
    SystemConfig cfg = smallConfig(GetParam());
    SoakChainResult chain = runSoakChain(cfg, smallSoak(4));
    ASSERT_TRUE(chain.ok) << chain.failure;
    EXPECT_EQ(chain.totalResets(), 0u);
    EXPECT_EQ(chain.silentCycles(), 0u);
    EXPECT_EQ(chain.finalQuarantined, 0u);
    ASSERT_EQ(chain.finalCommitted.size(), 1u);
    EXPECT_EQ(chain.finalCommitted[0], chain.finalTxnTarget);

    // Control: one uninterrupted run to the same target.
    cfg.wl.txnTarget = chain.finalTxnTarget;
    System control(cfg);
    control.run();
    control.crashChannels();
    std::vector<RecoveryReport> reports = control.recoverAll();
    ASSERT_EQ(reports.size(), 1u);
    ASSERT_TRUE(reports[0].consistent) << reports[0].detail;
    EXPECT_EQ(reports[0].committedTxns, chain.finalTxnTarget);
    EXPECT_EQ(foldDigests(reports), chain.finalDigest);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, CleanChainIdentity,
                         ::testing::Values(DesignPoint::ColocatedCC,
                                           DesignPoint::FCA,
                                           DesignPoint::SCA,
                                           DesignPoint::Unsafe));

// --- resume construction --------------------------------------------------

/**
 * The tentpole mechanism in isolation: crash mid-run, recover in
 * degraded write-back mode, resume, and finish the workload. The
 * resumed system must pick up at the committed count and run to a
 * fully consistent completion.
 */
TEST(Resume, ContinuesFromCommittedPoint)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.wl.txnTarget = 20;
    auto sys = std::make_unique<System>(cfg);
    RunResult probe = sys->run();

    sys = std::make_unique<System>(cfg);
    RunResult r = sys->runWithCrashAt(probe.endTick / 2);
    ASSERT_TRUE(r.crashed);

    PersistImage img = sys->nvm().persistedState();
    RecoveryOptions ropt;
    ropt.degraded = true;
    ropt.commitTo = &img;
    RecoveryEngine eng(img, sys->controller());
    RecoveryReport rep = eng.recover(sys->workload(0), nullptr, ropt);
    ASSERT_TRUE(rep.consistent) << rep.detail;
    ASSERT_LT(rep.committedTxns, 20u);

    ResumeState state;
    img.clearFaultGroundTruth();
    state.image = std::move(img);
    state.committedTxns = {rep.committedTxns};
    state.quarantined = {rep.quarantinedLines};

    System resumed(cfg, state);
    resumed.run();
    resumed.crashChannels();
    std::vector<RecoveryReport> fin = resumed.recoverAll();
    ASSERT_TRUE(fin[0].consistent) << fin[0].detail;
    EXPECT_EQ(fin[0].committedTxns, 20u);

    // Identity against the uninterrupted run's recovered content.
    System control(cfg);
    control.run();
    control.crashChannels();
    std::vector<RecoveryReport> ctrl = control.recoverAll();
    ASSERT_TRUE(ctrl[0].consistent);
    EXPECT_EQ(fin[0].recoveredDigest, ctrl[0].recoveredDigest);
}

TEST(Resume, WorksAcrossChannelConfigs)
{
    SystemConfig cfg = smallConfig(DesignPoint::ColocatedCC);
    cfg.numChannels = 2;
    SoakChainResult chain = runSoakChain(cfg, smallSoak(3));
    ASSERT_TRUE(chain.ok) << chain.failure;
    EXPECT_EQ(chain.totalResets(), 0u);
}

TEST(Resume, MultiCoreChain)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.numCores = 2;
    SoakChainResult chain = runSoakChain(cfg, smallSoak(3));
    ASSERT_TRUE(chain.ok) << chain.failure;
    ASSERT_EQ(chain.finalCommitted.size(), 2u);
    EXPECT_EQ(chain.finalCommitted[0], chain.finalTxnTarget);
    EXPECT_EQ(chain.finalCommitted[1], chain.finalTxnTarget);
}

// --- quarantine persistence -----------------------------------------------

/** First persisted log-backup line of core 0 — damage to it survives
 *  recovery as a quarantined line without touching committed state. */
Addr
persistedLogBackupLine(System &sys)
{
    for (Addr a : sys.nvm().persistedState().dataLineAddrs()) {
        if (sys.workload(0).classifyAddr(a) == RegionPart::LogBackup)
            return a;
    }
    return 0;
}

/**
 * A line quarantined in cycle k reads as zeros and stays counted in
 * every later cycle until something legitimately rewrites its stored
 * triple; the SoakOracle accepts the legitimate lift and rejects a
 * silent one.
 */
TEST(QuarantinePersistence, SurvivesCyclesUntilRewritten)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.memctl.integrityMac = true;
    cfg.wl.txnTarget = 6;

    auto sys = std::make_unique<System>(cfg);
    sys->run();
    sys->crashChannels(); // clean shutdown: log invalid
    Addr victim = persistedLogBackupLine(*sys);
    ASSERT_NE(victim, 0u);
    LineData garbage{};
    garbage.fill(0xA5);
    sys->nvm().persistedState().corruptDataLine(victim, garbage);

    SoakOracle oracle(1);
    std::vector<std::uint8_t> fresh;

    // Cycle 0: the corruption is detected and quarantined; committed
    // state is untouched (the log was invalid), so recovery completes
    // degraded.
    PersistImage img = sys->nvm().persistedState();
    RecoveryOptions ropt;
    ropt.degraded = true;
    ropt.commitTo = &img;
    CrashOracle ocl(img, sys->controller());
    std::vector<OracleReport> reports{
        ocl.examine(sys->workload(0), nullptr, ropt)};
    ASSERT_TRUE(reports[0].recovery.consistent)
        << reports[0].recovery.detail;
    EXPECT_TRUE(reports[0].recovery.degradedConsistent);
    // A handled (quarantined) corruption under a consistent verdict
    // classifies Consistent — the detection shows in the counters.
    EXPECT_EQ(reports[0].cls, CrashClass::Consistent);
    EXPECT_GE(reports[0].recovery.detectedCorruptions, 1u);
    ASSERT_EQ(reports[0].recovery.quarantinedLines.size(), 1u);
    EXPECT_EQ(reports[0].recovery.quarantinedLines[0], victim);
    EXPECT_TRUE(oracle.observe(reports, img, sys->controller(), fresh)
                    .empty());
    EXPECT_EQ(oracle.quarantinedCount(), 1u);

    ResumeState state;
    img.clearFaultGroundTruth();
    state.image = std::move(img);
    state.committedTxns = {reports[0].recovery.committedTxns};
    state.quarantined = {reports[0].recovery.quarantinedLines};

    // Cycles 1..2: resume, crash immediately (no work, no rewrite) —
    // the line must read as zeros and stay quarantined every time.
    for (unsigned cycle = 1; cycle <= 2; ++cycle) {
        cfg.wl.txnTarget = 6 + cycle * 4;
        auto resumed = std::make_unique<System>(cfg, state);
        LineData live = resumed->live(0).read(victim);
        for (std::uint8_t b : live)
            ASSERT_EQ(b, 0u) << "cycle " << cycle;
        resumed->crashChannels(); // instant power failure, nothing ran

        PersistImage next = resumed->nvm().persistedState();
        RecoveryOptions nropt;
        nropt.degraded = true;
        nropt.commitTo = &next;
        CrashOracle nocl(next, resumed->controller());
        std::vector<OracleReport> nrep{
            nocl.examine(resumed->workload(0), nullptr, nropt)};
        ASSERT_TRUE(nrep[0].recovery.consistent)
            << "cycle " << cycle << ": " << nrep[0].recovery.detail;
        ASSERT_EQ(nrep[0].recovery.quarantinedLines.size(), 1u)
            << "cycle " << cycle;
        EXPECT_EQ(nrep[0].recovery.quarantinedLines[0], victim);
        EXPECT_TRUE(oracle
                        .observe(nrep, next, resumed->controller(),
                                 fresh)
                        .empty());

        next.clearFaultGroundTruth();
        state = ResumeState{};
        state.image = std::move(next);
        state.committedTxns = {nrep[0].recovery.committedTxns};
        state.quarantined = {nrep[0].recovery.quarantinedLines};
        sys = std::move(resumed);
    }

    // Cycle 3: actually run — the first transaction rewrites the log
    // backup area, draining a fresh triple over the tombstone. The
    // quarantine lifts and the oracle accepts it as legitimate.
    cfg.wl.txnTarget = 20;
    System resumed(cfg, state);
    resumed.run();
    resumed.crashChannels();
    PersistImage last = resumed.nvm().persistedState();
    RecoveryOptions lropt;
    lropt.degraded = true;
    lropt.commitTo = &last;
    CrashOracle locl(last, resumed.controller());
    std::vector<OracleReport> lrep{
        locl.examine(resumed.workload(0), nullptr, lropt)};
    ASSERT_TRUE(lrep[0].recovery.consistent) << lrep[0].recovery.detail;
    EXPECT_EQ(lrep[0].recovery.committedTxns, 20u);
    EXPECT_TRUE(lrep[0].recovery.quarantinedLines.empty());
    EXPECT_TRUE(
        oracle.observe(lrep, last, resumed.controller(), fresh).empty());
    EXPECT_EQ(oracle.quarantinedCount(), 0u);
}

/** The oracle flags a quarantined line that vanishes from the reports
 *  while its stored triple is unchanged — the silent shrink. */
TEST(QuarantinePersistence, OracleRejectsSilentShrink)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.memctl.integrityMac = true;
    cfg.wl.txnTarget = 6;

    System sys(cfg);
    sys.run();
    sys.crashChannels();
    Addr victim = persistedLogBackupLine(sys);
    ASSERT_NE(victim, 0u);
    LineData garbage{};
    garbage.fill(0x3C);
    sys.nvm().persistedState().corruptDataLine(victim, garbage);

    PersistImage img = sys.nvm().persistedState();
    RecoveryOptions ropt;
    ropt.degraded = true;
    ropt.commitTo = &img;
    CrashOracle ocl(img, sys.controller());
    std::vector<OracleReport> reports{
        ocl.examine(sys.workload(0), nullptr, ropt)};
    ASSERT_EQ(reports[0].recovery.quarantinedLines.size(), 1u);

    SoakOracle oracle(1);
    std::vector<std::uint8_t> fresh;
    ASSERT_TRUE(
        oracle.observe(reports, img, sys.controller(), fresh).empty());

    // Forge the next cycle's reports: same image bytes, but the
    // quarantine entry dropped — as if recovery trusted the line.
    reports[0].recovery.quarantinedLines.clear();
    std::string viol = oracle.observe(reports, img, sys.controller(),
                                      fresh);
    EXPECT_NE(viol.find("left quarantine"), std::string::npos) << viol;
}

// --- fault-dosed chains ---------------------------------------------------

TEST(SoakChain, FaultDosedChainStaysLoud)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.memctl.integrityMac = true;
    cfg.memctl.integrityTree = true;
    SoakOptions opt = smallSoak(8);
    opt.faults = FaultSpec::allKindsWithReplays(11);
    SoakChainResult chain = runSoakChain(cfg, opt);
    ASSERT_TRUE(chain.ok) << chain.failure;
    EXPECT_EQ(chain.silentCycles(), 0u);
    EXPECT_GT(chain.dosedCycles(), 0u);

    // The dose has to have landed somewhere: detections, repairs, or
    // residual quarantine across the chain.
    std::uint64_t seen = 0;
    for (const SoakCycle &c : chain.cycles)
        seen += c.detectedCorruptions + c.replaysDetected
            + c.repairedLines + c.quarantined;
    EXPECT_GT(seen, 0u);
}

TEST(SoakChain, RecoveryCrashProbeConverges)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.memctl.integrityMac = true;
    SoakOptions opt = smallSoak(4);
    opt.recoveryCrashes = 2;
    SoakChainResult chain = runSoakChain(cfg, opt);
    ASSERT_TRUE(chain.ok) << chain.failure;
    unsigned interrupts = 0;
    for (const SoakCycle &c : chain.cycles)
        interrupts += c.recoveryInterrupts;
    EXPECT_GT(interrupts, 0u);
}

// --- determinism ----------------------------------------------------------

TEST(SoakDeterminism, FingerprintIdenticalAcrossJobs)
{
    SystemConfig cfg = smallConfig(DesignPoint::ColocatedCC);
    cfg.memctl.integrityMac = true;
    SoakOptions opt = smallSoak(3);
    opt.faults = FaultSpec::allKinds(5);
    opt.chains = 3;

    opt.jobs = 1;
    SoakResult serial = runSoak(cfg, opt);
    opt.jobs = 4;
    SoakResult parallel = runSoak(cfg, opt);

    ASSERT_TRUE(serial.allOk()) << serial.firstFailure();
    EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
}

// --- stat semantics -------------------------------------------------------

/** Each cycle runs on a freshly built System, so per-cycle stats are
 *  reset by construction; the chain carries snapshots whose sum is
 *  the accumulate view. */
TEST(SoakStats, PerCycleSnapshotsArePopulated)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    SoakChainResult chain = runSoakChain(cfg, smallSoak(3));
    ASSERT_TRUE(chain.ok) << chain.failure;
    ASSERT_EQ(chain.cycles.size(), 4u); // 3 cycles + final examination
    std::uint64_t total_txns = 0;
    for (const SoakCycle &c : chain.cycles) {
        EXPECT_GT(c.stats.nvmBytesWritten, 0u) << "cycle " << c.cycle;
        EXPECT_GT(c.stats.dataInserts, 0u) << "cycle " << c.cycle;
        total_txns += c.stats.txnsIssued;
    }
    EXPECT_GE(total_txns, chain.finalTxnTarget);
}

// --- headline gate --------------------------------------------------------

/**
 * The headline soak gate: across the four design points, >= 100
 * crash→recover→resume cycles in total with media and replay faults
 * dosed and the integrity tree armed — every cycle classifies loud,
 * every cumulative invariant holds, and every final image passes the
 * full examination.
 */
TEST(SoakHeadline, FourDesignsHundredCyclesZeroSilent)
{
    const DesignPoint designs[] = {
        DesignPoint::ColocatedCC,
        DesignPoint::FCA,
        DesignPoint::SCA,
        DesignPoint::Unsafe,
    };
    unsigned total_cycles = 0;
    for (DesignPoint d : designs) {
        SystemConfig cfg = smallConfig(d);
        cfg.memctl.integrityMac = true;
        cfg.memctl.integrityTree = true;
        SoakOptions opt = smallSoak(26);
        opt.faults = FaultSpec::allKindsWithReplays(3);
        SoakChainResult chain = runSoakChain(cfg, opt);
        ASSERT_TRUE(chain.ok)
            << designName(d) << ": " << chain.failure;
        EXPECT_EQ(chain.silentCycles(), 0u) << designName(d);
        EXPECT_GT(chain.dosedCycles(), 0u) << designName(d);
        total_cycles += static_cast<unsigned>(chain.cycles.size());
    }
    EXPECT_GE(total_cycles, 100u);
}

} // namespace
} // namespace cnvm
