/**
 * @file
 * Tests for the media-fault injection layer and the integrity-verified
 * recovery built on it: the FaultSpec/FaultModel determinism contract,
 * directed MAC detect/repair/quarantine behavior, and the sweep-level
 * headline invariant — with integrity metadata armed, no injected
 * fault is ever silent; without it, the same doses demonstrably are.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/crash_sweep.hh"
#include "core/recovery.hh"
#include "core/system.hh"
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

/** First initialized data line of core 0 that is outside its log. */
Addr
pickDataLine(const System &sys, LineData *content = nullptr)
{
    const Workload &wl = sys.workload(0);
    const LogLayout &log = wl.log();
    Addr found = 0;
    LineData data{};
    wl.shadowMem().table().forEach([&](Addr a, const LineData &d) {
        bool in_log = a >= log.base && a < log.base + log.sizeBytes();
        if (found == 0 && !in_log) {
            found = a;
            data = d;
        }
    });
    EXPECT_NE(found, 0u);
    if (content != nullptr)
        *content = data;
    return found;
}

// --- FaultSpec ------------------------------------------------------------

TEST(FaultSpec, AnyAndDescribe)
{
    FaultSpec none;
    EXPECT_FALSE(none.any());
    EXPECT_EQ(none.describe(), "");

    FaultSpec dose = FaultSpec::allKinds(9);
    EXPECT_TRUE(dose.any());
    std::string d = dose.describe();
    EXPECT_NE(d.find("+f("), std::string::npos);
    EXPECT_NE(d.find("s9"), std::string::npos);
}

TEST(FaultSpec, PerPointSeedsAreDeterministicAndDistinct)
{
    FaultSpec base = FaultSpec::allKinds(5);
    FaultSpec p3 = base.forPoint(3);
    EXPECT_EQ(p3.seed, base.forPoint(3).seed);
    EXPECT_NE(p3.seed, base.forPoint(4).seed);
    EXPECT_NE(p3.seed, base.seed);
    // The dose itself carries over unchanged.
    EXPECT_EQ(p3.tornWrites, base.tornWrites);
    EXPECT_EQ(p3.bitFlips, base.bitFlips);
    EXPECT_EQ(p3.counterFaults, base.counterFaults);
    EXPECT_EQ(p3.adrDrops, base.adrDrops);
}

// --- FaultModel -----------------------------------------------------------

TEST(FaultModel, SameSeedSameCorruption)
{
    System sys(smallConfig(DesignPoint::SCA, 0));
    Addr ctr_base = sys.controller().config().counterRegionBase;

    PersistImage images[2] = {sys.nvm().persistedState(),
                              sys.nvm().persistedState()};
    for (PersistImage &img : images) {
        FaultModel fm(FaultSpec::allKinds(11), ctr_base);
        fm.adrDropCount(10);
        fm.applyMediaFaults(img);
    }

    ASSERT_GT(images[0].faultedLineCount(), 0u);
    EXPECT_EQ(images[0].faultedLineCount(), images[1].faultedLineCount());
    for (Addr a : images[0].dataLineAddrs()) {
        EXPECT_EQ(images[0].lineFaulted(a), images[1].lineFaulted(a));
        ASSERT_NE(images[0].persistedLine(a), nullptr);
        ASSERT_NE(images[1].persistedLine(a), nullptr);
        EXPECT_EQ(*images[0].persistedLine(a), *images[1].persistedLine(a))
            << std::hex << a;
    }
}

TEST(FaultModel, DifferentSeedDifferentCorruption)
{
    System sys(smallConfig(DesignPoint::SCA, 0));
    Addr ctr_base = sys.controller().config().counterRegionBase;

    PersistImage a = sys.nvm().persistedState();
    PersistImage b = sys.nvm().persistedState();
    FaultModel(FaultSpec::allKinds(1), ctr_base).applyMediaFaults(a);
    FaultModel(FaultSpec::allKinds(2), ctr_base).applyMediaFaults(b);

    bool differ = false;
    for (Addr addr : a.dataLineAddrs()) {
        if (a.lineFaulted(addr) != b.lineFaulted(addr)
            || *a.persistedLine(addr) != *b.persistedLine(addr))
            differ = true;
    }
    EXPECT_TRUE(differ) << "two seeds produced the identical dose";
}

TEST(FaultModel, AdrDropCountIsBoundedByReadyEntries)
{
    FaultSpec spec;
    spec.adrDrops = 8;
    spec.seed = 3;
    FaultModel fm(spec, 0x10000000);
    for (int i = 0; i < 32; ++i)
        EXPECT_LE(fm.adrDropCount(2), 2u);
}

// --- directed MAC behavior ------------------------------------------------

TEST(IntegrityMac, CounterRollbackIsRepairedByWindowSearch)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 0);
    cfg.memctl.integrityMac = true;
    System sys(cfg);
    MemController &ctl = sys.controller();
    PersistImage &img = sys.nvm().persistedState();

    LineData expect;
    Addr addr = pickDataLine(sys, &expect);

    // A counter-store fault: roll the persisted counter back below the
    // value the line's MAC was minted with.
    Addr ctr_line = ctl.counterLineAddr(addr);
    unsigned slot = ctl.counterSlot(addr);
    CounterLine ctrs = img.persistedCounters(ctr_line);
    ASSERT_GE(ctrs[slot], 1u);
    ctrs[slot] -= 1;
    img.drainCounters(ctr_line, ctrs);

    // Osiris-style repair: the MAC mismatch triggers a bounded trial
    // re-decryption that lands on the true counter.
    RecoveredImage image(img, ctl);
    EXPECT_EQ(image.line(addr), expect);
    EXPECT_EQ(image.detectedCorruptions(), 1u);
    EXPECT_EQ(image.windowRepairs(), 1u);
    EXPECT_EQ(image.quarantinedCount(), 0u);
}

TEST(IntegrityMac, CorruptCiphertextIsQuarantined)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 0);
    cfg.memctl.integrityMac = true;
    System sys(cfg);

    Addr addr = pickDataLine(sys);
    LineData garbage;
    garbage.fill(0x5a);
    sys.nvm().persistedState().corruptDataLine(addr, garbage);

    // No counter in the window authenticates corrupted ciphertext, so
    // the line degrades gracefully: quarantined, reads as zeros.
    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    EXPECT_EQ(image.line(addr), LineData{});
    EXPECT_EQ(image.detectedCorruptions(), 1u);
    EXPECT_EQ(image.windowRepairs(), 0u);
    EXPECT_EQ(image.quarantinedCount(), 1u);
    EXPECT_TRUE(image.isQuarantined(addr));
}

TEST(IntegrityMac, QuarantinedLineFailsRecoveryWithReason)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 5);
    cfg.memctl.integrityMac = true;
    System sys(cfg);
    sys.run();
    sys.crashChannels();

    Addr addr = pickDataLine(sys);
    LineData garbage;
    garbage.fill(0xa7);
    sys.nvm().persistedState().corruptDataLine(addr, garbage);

    RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
    RecoveryReport report = engine.recover(sys.workload(0));
    EXPECT_FALSE(report.consistent);
    EXPECT_EQ(report.reason, RecoveryFailure::QuarantinedLines);
    EXPECT_EQ(report.detectedCorruptions, 1u);
    EXPECT_EQ(report.unrecoverableLines, 1u);
    EXPECT_EQ(report.repairedLines, 0u);
}

TEST(IntegrityMac, WithoutMacsTheSameCorruptionIsInvisible)
{
    // The control for the quarantine test: integrity off, identical
    // corruption — recovery never notices a thing.
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 5);
    System sys(cfg);
    sys.run();
    sys.crashChannels();

    Addr addr = pickDataLine(sys);
    LineData garbage;
    garbage.fill(0xa7);
    sys.nvm().persistedState().corruptDataLine(addr, garbage);

    RecoveryEngine engine(sys.nvm().persistedState(), sys.controller());
    RecoveryReport report = engine.recover(sys.workload(0));
    EXPECT_EQ(report.detectedCorruptions, 0u);
    EXPECT_EQ(report.unrecoverableLines, 0u);
}

// --- sweep-level invariants -----------------------------------------------

TEST(FaultSweep, FingerprintIdenticalAcrossModesAndJobs)
{
    // The fault dose is a pure function of the base seed and the plan
    // index, so the same sweep fingerprints byte-identically in Replay
    // and Fork mode at any job count, on every crash-handling design.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        SystemConfig cfg = smallConfig(d);
        cfg.memctl.integrityMac = true;

        SweepOptions ref_opt;
        ref_opt.points = 8;
        ref_opt.faults = FaultSpec::allKinds(42);
        std::string ref = runSweep(cfg, ref_opt).fingerprint();
        ASSERT_FALSE(ref.empty()) << designName(d);
        EXPECT_NE(ref.find("+f("), std::string::npos) << designName(d);

        for (SweepMode mode : {SweepMode::Replay, SweepMode::Fork}) {
            for (unsigned jobs : {1u, 4u}) {
                SweepOptions opt = ref_opt;
                opt.mode = mode;
                opt.jobs = jobs;
                EXPECT_EQ(runSweep(cfg, opt).fingerprint(), ref)
                    << designName(d) << " " << sweepModeName(mode)
                    << " jobs=" << jobs;
            }
        }
    }
}

TEST(FaultSweep, CleanSweepFingerprintCarriesNoFaultAnnotations)
{
    // Historical fingerprints must survive the fault layer: a sweep
    // without a dose describes and classifies exactly as before.
    SweepResult clean = runSweep(smallConfig(DesignPoint::SCA), 6);
    EXPECT_EQ(clean.fingerprint().find("+f("), std::string::npos);
    EXPECT_EQ(clean.fingerprint().find("/f"), std::string::npos);
    EXPECT_EQ(clean.totalOf(&SweepPoint::faultedLines), 0u);
    EXPECT_EQ(clean.totalOf(&SweepPoint::detectedCorruptions), 0u);
}

TEST(FaultSweep, IntegrityOnNothingIsSilent)
{
    // The headline invariant over every crash-handling design: with
    // integrity metadata armed, an injected fault either masks
    // (consistent recovery) or is detected — never silent. And any
    // recovery failure of a crash-consistent design under media faults
    // must be a detected one, not a miscarried rollback.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        SystemConfig cfg = smallConfig(d);
        cfg.memctl.integrityMac = true;

        SweepOptions opt;
        opt.points = 8;
        opt.mode = SweepMode::Fork;
        opt.jobs = 4;
        opt.faults = FaultSpec::allKinds(1);
        SweepResult result = runSweep(cfg, opt);

        EXPECT_EQ(result.silentPoints(), 0u) << designName(d);
        EXPECT_GT(result.totalOf(&SweepPoint::faultedLines), 0u)
            << designName(d) << ": the dose never landed";
        if (designCrashConsistent(d)) {
            EXPECT_EQ(result.inconsistentPoints(),
                      result.countOf(CrashClass::DetectedCorruption))
                << designName(d);
        }
        // Per-point accounting: every detection is either repaired or
        // quarantined, nothing vanishes.
        for (const SweepPoint &p : result.points) {
            if (!p.crashed)
                continue;
            EXPECT_EQ(p.detectedCorruptions,
                      p.repairedLines + p.unrecoverableLines)
                << designName(d) << " " << p.spec.describe();
        }
    }
}

TEST(FaultSweep, IntegrityOffProducesSilentCorruption)
{
    // The negative control: the same dose without integrity metadata
    // must corrupt silently somewhere — recovery fails (or worse,
    // passes) with zero detections.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);

    SweepOptions opt;
    opt.points = 10;
    opt.mode = SweepMode::Fork;
    opt.jobs = 4;
    opt.faults = FaultSpec::allKinds(1);
    SweepResult result = runSweep(cfg, opt);

    EXPECT_GE(result.silentPoints(), 1u);
    EXPECT_EQ(result.totalOf(&SweepPoint::detectedCorruptions), 0u);
}

TEST(FaultSweep, AdrDropsAloneAreNotMediaFaults)
{
    // Energy-budget exhaustion loses queued persists; that is a
    // legitimate crash shape, not corruption, so no line is marked
    // faulted and nothing can classify as silent corruption.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);

    SweepOptions opt;
    opt.points = 8;
    FaultSpec dose;
    dose.adrDrops = 4;
    dose.seed = 2;
    opt.faults = dose;
    SweepResult result = runSweep(cfg, opt);

    EXPECT_EQ(result.totalOf(&SweepPoint::faultedLines), 0u);
    EXPECT_EQ(result.silentPoints(), 0u);
    EXPECT_EQ(result.countOf(CrashClass::DetectedCorruption), 0u);
}

TEST(FaultSweep, NoEncryptionSkipsCounterFaults)
{
    // The counter store does not exist without encryption; a dose that
    // asks for counter faults must not fabricate one (or crash).
    SystemConfig cfg = smallConfig(DesignPoint::NoEncryption);

    SweepOptions opt;
    opt.points = 6;
    FaultSpec dose;
    dose.counterFaults = 2;
    dose.seed = 4;
    opt.faults = dose;
    SweepResult result = runSweep(cfg, opt);
    EXPECT_EQ(result.totalOf(&SweepPoint::faultedLines), 0u);
}

TEST(CrashClassNames, IncludeTheFaultClasses)
{
    EXPECT_STREQ(crashClassName(CrashClass::DetectedCorruption),
                 "detected-corruption");
    EXPECT_STREQ(crashClassName(CrashClass::SilentCorruption),
                 "silent-corruption");
}

} // anonymous namespace
} // namespace cnvm
