/**
 * @file
 * Tests for the crash-point sweep harness: the injector's crash specs,
 * the sweep planner, and a small end-to-end sweep over every design
 * point, classified by the crash oracle.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "common/hash.hh"
#include "core/crash_sweep.hh"

namespace cnvm
{
namespace
{

// --- CrashSpec ------------------------------------------------------------

TEST(CrashSpec, DescribeNamesTickAndEvent)
{
    EXPECT_EQ(CrashSpec::atTick(1234).describe(), "tick 1234");
    EXPECT_EQ(
        CrashSpec::atEvent(CrashTriggerKind::DirtyEviction, 7).describe(),
        "dirty-eviction #7");
    EXPECT_FALSE(ctlEventFor(CrashTriggerKind::AtTick).has_value());
    EXPECT_EQ(ctlEventFor(CrashTriggerKind::PairAction),
              CtlEvent::PairAction);
}

// --- planSweep ------------------------------------------------------------

SweepProbe
fakeProbe()
{
    SweepProbe probe;
    probe.endTick = 1000000;
    probe.eventCounts[static_cast<unsigned>(CtlEvent::PipelineEnter)] = 40;
    probe.eventCounts[static_cast<unsigned>(CtlEvent::DataDrain)] = 40;
    probe.eventCounts[static_cast<unsigned>(CtlEvent::CtrDrain)] = 10;
    // PairAction and DirtyEviction never observed.
    return probe;
}

TEST(PlanSweep, ProducesExactlyKPointsOverReachableKinds)
{
    auto specs = planSweep(fakeProbe(), 12);
    ASSERT_EQ(specs.size(), 12u);
    bool saw_unreachable = false;
    for (const CrashSpec &s : specs) {
        if (s.kind == CrashTriggerKind::PairAction
            || s.kind == CrashTriggerKind::DirtyEviction)
            saw_unreachable = true;
        if (s.kind == CrashTriggerKind::AtTick) {
            EXPECT_GT(s.tick, 0u);
            EXPECT_LT(s.tick, fakeProbe().endTick);
        } else {
            EXPECT_GE(s.count, 1u);
            EXPECT_LE(s.count, 40u);
        }
    }
    EXPECT_FALSE(saw_unreachable)
        << "planned a trigger the probe never observed";
}

TEST(PlanSweep, IsDeterministic)
{
    auto a = planSweep(fakeProbe(), 20);
    auto b = planSweep(fakeProbe(), 20);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].describe(), b[i].describe());
}

// --- end-to-end sweeps ----------------------------------------------------

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
    // Small counter cache: dirty evictions become reachable crash
    // states for the cached designs.
    cfg.memctl.counterCacheBytes = 16 << 10;
    return cfg;
}

class DesignSweep : public ::testing::TestWithParam<DesignPoint>
{};

TEST_P(DesignSweep, SmallSweepMatchesDesignGuarantee)
{
    SweepResult result = runSweep(smallConfig(GetParam()), 7);
    ASSERT_EQ(result.points.size(), 7u);
    if (designCrashConsistent(GetParam())) {
        for (const SweepPoint &p : result.points) {
            EXPECT_TRUE(!p.crashed || p.cls == CrashClass::Consistent)
                << p.spec.describe() << " -> " << crashClassName(p.cls)
                << ": " << p.detail;
        }
    } else {
        // The negative control: some crash point must exhibit the
        // paper's counter/data divergence.
        EXPECT_GE(result.mismatchPoints(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignSweep,
                         ::testing::ValuesIn(allDesignPoints()),
                         [](const auto &info) {
                             std::string n = designName(info.param);
                             for (char &c : n)
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

TEST(CrashSweepEndToEnd, FingerprintIsDeterministic)
{
    SystemConfig cfg = smallConfig(DesignPoint::Unsafe);
    SweepResult a = runSweep(cfg, 6);
    SweepResult b = runSweep(cfg, 6);
    EXPECT_FALSE(a.fingerprint().empty());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(CrashSweepEndToEnd, ParallelExecuteIsByteIdenticalToSerial)
{
    // The work-pool Execute phase must be invisible in the results:
    // sweep fingerprints and every point's full stats dump must be
    // byte-identical across --jobs 1/2/8 for each design.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        SystemConfig cfg = smallConfig(d);

        std::string fingerprints[3];
        std::string stats[3];
        const unsigned jobs_values[3] = {1, 2, 8};
        for (int i = 0; i < 3; ++i) {
            SweepOptions opt;
            opt.points = 6;
            opt.jobs = jobs_values[i];
            opt.collectStatsDumps = true;
            SweepResult result = runSweep(cfg, opt);
            fingerprints[i] = result.fingerprint();
            for (const SweepPoint &p : result.points) {
                EXPECT_FALSE(p.statsDump.empty());
                stats[i] += p.statsDump;
            }
        }
        EXPECT_FALSE(fingerprints[0].empty()) << designName(d);
        EXPECT_EQ(fingerprints[0], fingerprints[1]) << designName(d);
        EXPECT_EQ(fingerprints[0], fingerprints[2]) << designName(d);
        EXPECT_EQ(stats[0], stats[1]) << designName(d);
        EXPECT_EQ(stats[0], stats[2]) << designName(d);
    }
}

TEST(CrashSweepEndToEnd, UnsafeFailsAsTornCounter)
{
    // The Unsafe design's signature: the data drains, its deferred
    // counter update dies dirty in the volatile counter cache, so the
    // persisted counter lags the cipher's — torn-counter, the paper's
    // Figure 4 failure.
    SweepResult result = runSweep(smallConfig(DesignPoint::Unsafe), 10);
    bool saw_torn_counter = false;
    for (const SweepPoint &p : result.points) {
        if (!p.crashed || p.cls == CrashClass::Consistent)
            continue;
        EXPECT_TRUE(isCounterDataMismatch(p.cls))
            << p.spec.describe() << " -> " << crashClassName(p.cls);
        EXPECT_GT(p.mismatchedLines, 0u);
        saw_torn_counter |= p.cls == CrashClass::TornCounter
            || p.cls == CrashClass::CounterDataMismatch;
    }
    EXPECT_TRUE(saw_torn_counter);
}

TEST(CrashSweepEndToEnd, PipelineTriggerCrashesMidPipeline)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    SweepProbe probe = probeRun(cfg);
    std::uint64_t total = probe.countOf(CtlEvent::PipelineEnter);
    ASSERT_GT(total, 0u);

    SweepPoint point = runSweepPoint(
        cfg, CrashSpec::atEvent(CrashTriggerKind::PipelineEnter,
                                total / 2));
    ASSERT_TRUE(point.crashed);
    EXPECT_GE(point.snapshot.pipeline, 1u)
        << "the trigger should catch the write inside the pipeline";
    EXPECT_EQ(point.cls, CrashClass::Consistent) << point.detail;
}

TEST(CrashSweepEndToEnd, UnreachedTriggerMeansNoCrash)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    SweepPoint point = runSweepPoint(
        cfg, CrashSpec::atEvent(CrashTriggerKind::PairAction, 1u << 30));
    EXPECT_FALSE(point.crashed);
    EXPECT_FALSE(point.snapshot.valid);
    EXPECT_EQ(point.cls, CrashClass::Consistent);
}

// --- fork-based Execute ---------------------------------------------------

TEST(ForkSweep, ForkMatchesReplayFingerprintAllDesigns)
{
    // The tentpole contract: mode=Fork classifies from captured
    // persistent-state forks of one trunk run, yet its fingerprint is
    // byte-identical to the K-replay reference — for every design,
    // serial and pipelined alike.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        SystemConfig cfg = smallConfig(d);

        SweepOptions replay;
        replay.points = 8;
        std::string reference = runSweep(cfg, replay).fingerprint();
        ASSERT_FALSE(reference.empty()) << designName(d);

        for (unsigned jobs : {1u, 4u}) {
            SweepOptions fork;
            fork.points = 8;
            fork.mode = SweepMode::Fork;
            fork.jobs = jobs;
            EXPECT_EQ(runSweep(cfg, fork).fingerprint(), reference)
                << designName(d) << " jobs=" << jobs;
        }
    }
}

TEST(ForkSweep, CaptureDoesNotPerturbTrunk)
{
    // Arming K capture-only triggers must be invisible to the trunk:
    // same end tick and a byte-identical full stats dump as an unarmed
    // run of the same configuration. That must hold even when every
    // captured fork gets a media-fault dose — the faults land on the
    // fork's image copy, never the trunk's device.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);

    System plain(cfg);
    RunResult plain_result = plain.run();
    std::ostringstream plain_stats;
    plain.statsRegistry().dump(plain_stats);

    SweepProbe probe = probeRun(cfg);
    for (bool with_faults : {false, true}) {
        std::vector<CrashSpec> plan = planSweep(probe, 9);
        // A point past the end of the run: disarmed when the cores
        // finish, it runs as a no-op and must deliver no fork.
        const std::size_t unreachable = plan.size();
        plan.push_back(CrashSpec::atTick(probe.endTick * 2));
        if (with_faults) {
            FaultSpec dose = FaultSpec::allKinds(7);
            for (std::size_t i = 0; i < plan.size(); ++i)
                plan[i].faults = dose.forPoint(i);
        }
        unsigned captured = 0;
        std::uint64_t faulted = 0;
        bool unreachable_delivered = false;
        System trunk(cfg);
        RunResult trunk_result = trunk.runWithForkCapture(
            plan, [&](std::size_t i, PersistFork fork) {
                ++captured;
                faulted += fork.image.faultedLineCount();
                unreachable_delivered =
                    unreachable_delivered || i == unreachable;
            });
        std::ostringstream trunk_stats;
        trunk.statsRegistry().dump(trunk_stats);

        EXPECT_GT(captured, 0u);
        EXPECT_FALSE(unreachable_delivered) << "faults=" << with_faults;
        if (with_faults) {
            EXPECT_GT(faulted, 0u) << "the dose never landed";
        }
        EXPECT_FALSE(trunk_result.crashed);
        EXPECT_EQ(trunk_result.endTick, plain_result.endTick)
            << "faults=" << with_faults;
        EXPECT_EQ(trunk_result.txnsIssued, plain_result.txnsIssued)
            << "faults=" << with_faults;
        EXPECT_EQ(trunk_stats.str(), plain_stats.str())
            << "faults=" << with_faults;
        EXPECT_EQ(trunk.nvm().persistedState().faultedLineCount(), 0u)
            << "a fault leaked onto the trunk's own image";
    }
}

TEST(ForkSweep, MultiSpecArmingFiresEachSpecOnceAtItsReplayTick)
{
    SystemConfig cfg = smallConfig(DesignPoint::ColocatedCC);
    SweepProbe probe = probeRun(cfg);
    ASSERT_GT(probe.countOf(CtlEvent::DataDrain), 4u);
    ASSERT_GT(probe.countOf(CtlEvent::PipelineEnter), 2u);

    // Two semantic specs and one absolute tick, all armed on one run.
    std::vector<CrashSpec> plan{
        CrashSpec::atEvent(CrashTriggerKind::DataDrain, 5),
        CrashSpec::atEvent(CrashTriggerKind::PipelineEnter, 3),
        CrashSpec::atTick(probe.endTick / 2),
    };

    std::vector<unsigned> fires(plan.size(), 0);
    std::vector<Tick> forkTicks(plan.size(), 0);
    System trunk(cfg);
    trunk.runWithForkCapture(plan,
                             [&](std::size_t i, PersistFork fork) {
                                 ++fires.at(i);
                                 forkTicks.at(i) = fork.snapshot.tick;
                                 EXPECT_EQ(fork.planIndex, i);
                             });

    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(fires[i], 1u) << plan[i].describe();
        // Each fork was captured at exactly the tick a dedicated
        // replay run crashes at for the same spec.
        SweepPoint replay = runSweepPoint(cfg, plan[i]);
        ASSERT_TRUE(replay.crashed) << plan[i].describe();
        EXPECT_EQ(forkTicks[i], replay.snapshot.tick)
            << plan[i].describe();
    }
}

TEST(ForkSweep, PersistForkIsADeepCopy)
{
    // Mutating the trunk after capture (it keeps simulating, and here
    // we corrupt its device outright) must not change the fork's
    // classification.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    SweepProbe probe = probeRun(cfg);
    CrashSpec spec =
        CrashSpec::atEvent(CrashTriggerKind::DataDrain,
                           probe.countOf(CtlEvent::DataDrain) / 2);

    std::vector<PersistFork> forks;
    System trunk(cfg);
    trunk.runWithForkCapture({spec},
                             [&](std::size_t, PersistFork fork) {
                                 forks.push_back(std::move(fork));
                             });
    ASSERT_EQ(forks.size(), 1u);

    SweepPoint before = classifyFork(trunk, spec, forks[0]);
    ASSERT_TRUE(before.crashed);

    // Corrupt every persisted line of core 0's region on the trunk.
    const Workload &wl = trunk.workload(0);
    LineData garbage;
    garbage.fill(0xa5);
    for (Addr a = wl.regionBase(); a < wl.regionEnd(); a += lineBytes)
        trunk.nvm().persistedState().drainData(a, garbage, 0xdeadbeef);

    SweepPoint after = classifyFork(trunk, spec, forks[0]);
    EXPECT_EQ(after.cls, before.cls);
    EXPECT_EQ(after.detail, before.detail);
    EXPECT_EQ(after.mismatchedLines, before.mismatchedLines);
    EXPECT_EQ(after.committedTxns, before.committedTxns);
    EXPECT_EQ(after.snapshot.tick, before.snapshot.tick);
}

/**
 * Everything recovery and the oracle read from a persisted image,
 * folded into one digest: each data line's ciphertext, cipher counter,
 * MAC, fault and replay marks and level-0 tree node; each counter
 * line's values and level-1 node; the replayable set; and the root.
 */
std::uint64_t
imageDigest(const PersistImage &img, Addr ctr_base)
{
    std::uint64_t h = fnvOffsetBasis;
    auto fold = [&h](std::uint64_t v) { h = fnv1aU64(v, h); };
    auto fold_optional = [&fold](const std::uint64_t *v) {
        fold(v != nullptr);
        if (v != nullptr)
            fold(*v);
    };
    for (Addr a : img.dataLineAddrs()) {
        fold(a);
        const LineData *cipher = img.persistedLine(a);
        h = fnv1a(cipher->data(), cipher->size(), h);
        fold(img.persistedCipherCounter(a));
        fold_optional(img.persistedMac(a));
        fold(img.lineFaulted(a));
        fold(img.lineReplayed(a));
        fold_optional(img.persistedTreeNode(0, a / lineBytes));
    }
    img.forEachCounterLine([&](Addr a, const CounterLine &values) {
        fold(a);
        for (std::uint64_t v : values)
            fold(v);
        fold_optional(img.persistedTreeNode(1, (a - ctr_base) / lineBytes));
    });
    for (Addr a : img.replayableLineAddrs())
        fold(a);
    fold_optional(img.persistedTreeRoot());
    return h;
}

TEST(ForkSweep, InPlaceCrashLeavesExactlyTheForkImage)
{
    // A power failure in place and a fork captured at the same point
    // must leave the same persisted bytes: the ADR drain, the tree
    // flushed root last and the fault dose, at one channel and at
    // four. The fingerprint tests compare only classifications.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        for (unsigned channels : {1u, 4u}) {
            SystemConfig cfg = smallConfig(d);
            cfg.numCores = 2;
            cfg.numChannels = channels;
            cfg.memctl.integrityMac = true;
            cfg.memctl.integrityTree = true;
            const Addr ctr_base = cfg.memctl.counterRegionBase;
            const std::string where = std::string(designName(d))
                + " channels=" + std::to_string(channels);

            std::vector<CrashSpec> plan = planSweep(probeRun(cfg), 8);
            const FaultSpec dose = FaultSpec::allKindsWithReplays(5);
            for (std::size_t i = 0; i < plan.size(); ++i)
                plan[i].faults = dose.forPoint(i);

            std::vector<std::optional<std::uint64_t>> fork_digests(
                plan.size());
            System trunk(cfg);
            trunk.runWithForkCapture(
                plan, [&](std::size_t i, PersistFork fork) {
                    fork_digests.at(i) = imageDigest(fork.image, ctr_base);
                });

            unsigned crashed = 0;
            for (std::size_t i = 0; i < plan.size(); ++i) {
                System sys(cfg);
                const bool hit = sys.runWithCrash(plan[i]).crashed;
                ASSERT_EQ(hit, fork_digests[i].has_value())
                    << where << " " << plan[i].describe();
                if (!hit)
                    continue;
                ++crashed;
                EXPECT_EQ(imageDigest(sys.nvm().persistedState(), ctr_base),
                          *fork_digests[i])
                    << where << " " << plan[i].describe();
            }
            EXPECT_GT(crashed, 0u) << where;
        }
    }
}

} // anonymous namespace
} // namespace cnvm
