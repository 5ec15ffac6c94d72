/**
 * @file
 * The paper's central correctness property, as a parameterized sweep:
 * for every crash-consistent design and every workload, a power failure
 * at ANY point of execution leaves a state that recovers to a committed
 * prefix of the transaction history. The Unsafe negative control (no
 * counter-atomicity) must fail for some crash points — that failure is
 * the Figure 3/4 inconsistency that motivates the whole paper.
 */

#include <gtest/gtest.h>

#include "core/crash_sweep.hh"
#include "core/system.hh"

namespace cnvm
{
namespace
{

struct SweepCase
{
    DesignPoint design;
    WorkloadKind workload;
};

std::string
caseName(const ::testing::TestParamInfo<SweepCase> &info)
{
    std::string name = std::string(designName(info.param.design)) + "_"
                     + workloadKindName(info.param.workload);
    std::string out;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += c;
        else
            out += '_';
    }
    return out;
}

SystemConfig
sweepConfig(const SweepCase &c)
{
    SystemConfig cfg;
    cfg.design = c.design;
    cfg.workload = c.workload;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = 30;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    return cfg;
}

class CrashSweep : public ::testing::TestWithParam<SweepCase>
{};

TEST_P(CrashSweep, EveryCrashPointRecoversConsistently)
{
    SystemConfig cfg = sweepConfig(GetParam());
    Tick total = System(cfg).run().endTick;

    const int points = 12;
    for (int i = 1; i <= points; ++i) {
        System sys(cfg);
        RunResult result = sys.runWithCrashAt(total * i / (points + 1));
        if (!result.crashed)
            continue;
        std::string why;
        ASSERT_TRUE(sys.recoveredConsistently(&why))
            << "crash at point " << i << "/" << points << ": " << why;
    }
}

std::vector<SweepCase>
consistentCases()
{
    std::vector<SweepCase> cases;
    for (DesignPoint d : {DesignPoint::NoEncryption, DesignPoint::Ideal,
                          DesignPoint::Colocated, DesignPoint::ColocatedCC,
                          DesignPoint::FCA, DesignPoint::SCA}) {
        for (WorkloadKind w : allWorkloadKinds())
            cases.push_back({d, w});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllDesignsAllWorkloads, CrashSweep,
                         ::testing::ValuesIn(consistentCases()),
                         caseName);

/** Multi-core variant on the proposal itself. */
class MultiCoreCrashSweep : public ::testing::TestWithParam<WorkloadKind>
{};

TEST_P(MultiCoreCrashSweep, ScaRecoversAllRegions)
{
    SystemConfig cfg = sweepConfig({DesignPoint::SCA, GetParam()});
    cfg.numCores = 2;
    cfg.wl.txnTarget = 15;
    Tick total = System(cfg).run().endTick;

    for (int i = 1; i <= 6; ++i) {
        System sys(cfg);
        RunResult result = sys.runWithCrashAt(total * i / 7);
        if (!result.crashed)
            continue;
        std::string why;
        ASSERT_TRUE(sys.recoveredConsistently(&why))
            << "crash point " << i << ": " << why;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, MultiCoreCrashSweep,
                         ::testing::ValuesIn(allWorkloadKinds()),
                         [](const auto &info) {
                             std::string n = workloadKindName(info.param);
                             for (char &c : n)
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

TEST(CrashSweepNegative, UnsafeDesignViolatesConsistency)
{
    // Without counter-atomicity, counter-mode encryption loses data
    // across failures (paper sections 2.2.2-2.2.3). The sweep must
    // find inconsistent recoveries.
    SystemConfig cfg = sweepConfig(
        {DesignPoint::Unsafe, WorkloadKind::ArraySwap});
    Tick total = System(cfg).run().endTick;

    unsigned failures = 0;
    for (int i = 1; i <= 12; ++i) {
        System sys(cfg);
        RunResult result = sys.runWithCrashAt(total * i / 13);
        if (!result.crashed)
            continue;
        std::string why;
        if (!sys.recoveredConsistently(&why))
            ++failures;
    }
    EXPECT_GT(failures, 0u)
        << "the Unsafe design should tear counter-atomic windows";
}

/**
 * Directed semantic crash points: instead of sampling runtime
 * fractions, arm the failure at controller states a tick can only hit
 * by luck — a write inside the encryption pipeline, writes parked in
 * the landing queue behind full write queues, a dirty counter
 * eviction in flight. Every crash-consistent design must recover from
 * each of them.
 */
class SemanticCrashPoints : public ::testing::TestWithParam<DesignPoint>
{
  protected:
    SystemConfig
    config()
    {
        SystemConfig cfg = sweepConfig({GetParam(), WorkloadKind::Queue});
        cfg.wl.txnTarget = 20;
        // Tiny write queues: the landing queue backs up, so the crash
        // hits states with writes parked outside the ADR domain.
        cfg.memctl.dataWqEntries = 4;
        cfg.memctl.ctrWqEntries = 4;
        // Small counter cache: dirty evictions actually happen.
        cfg.memctl.counterCacheBytes = 16 << 10;
        return cfg;
    }
};

TEST_P(SemanticCrashPoints, CrashInsidePipelineRecovers)
{
    SystemConfig cfg = config();
    SweepProbe probe = probeRun(cfg);
    std::uint64_t total = probe.countOf(CtlEvent::PipelineEnter);
    ASSERT_GT(total, 0u) << "every design funnels writes through the "
                            "controller pipeline";

    unsigned mid_pipeline = 0;
    for (std::uint64_t nth : {std::uint64_t(1), total / 2, total}) {
        SweepPoint p = runSweepPoint(
            cfg, CrashSpec::atEvent(CrashTriggerKind::PipelineEnter, nth));
        if (!p.crashed)
            continue;
        EXPECT_GE(p.snapshot.pipeline, 1u) << p.spec.describe();
        mid_pipeline += p.snapshot.pipeline >= 1;
        ASSERT_EQ(p.cls, CrashClass::Consistent)
            << p.spec.describe() << ": " << p.detail;
    }
    EXPECT_GT(mid_pipeline, 0u);
}

TEST_P(SemanticCrashPoints, CrashWithBackedUpQueuesRecovers)
{
    SystemConfig cfg = config();
    SweepProbe probe = probeRun(cfg);
    std::uint64_t total = probe.countOf(CtlEvent::DataDrain);
    ASSERT_GT(total, 0u);

    unsigned busy_points = 0;
    for (std::uint64_t nth :
         {total / 4, total / 2, 3 * total / 4, total}) {
        if (nth == 0)
            continue;
        SweepPoint p = runSweepPoint(
            cfg, CrashSpec::atEvent(CrashTriggerKind::DataDrain, nth));
        if (!p.crashed)
            continue;
        busy_points += p.snapshot.dataQueue > 0 || p.snapshot.landing > 0
            || p.snapshot.pipeline > 0;
        ASSERT_EQ(p.cls, CrashClass::Consistent)
            << p.spec.describe() << ": " << p.detail;
    }
    // With 4-entry queues, some sampled drain must catch more work
    // still in flight behind it.
    EXPECT_GT(busy_points, 0u);
}

TEST_P(SemanticCrashPoints, CrashAtDirtyEvictionRecovers)
{
    SystemConfig cfg = config();
    // SCA cleans deferred counters at every commit writeback, so
    // evictions need real pressure: wide transactions dirtying more
    // counter lines than a 4 KB cache holds before the commit point.
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.batch = 48;
    cfg.memctl.counterCacheBytes = 4 << 10;
    SweepProbe probe = probeRun(cfg);
    std::uint64_t total = probe.countOf(CtlEvent::DirtyEviction);
    // Only SCA leaves counters dirty in the counter cache: FCA and the
    // co-located designs write them through, Ideal persists them for
    // free, and the rest have no counter cache. A model change that
    // starts or stops emitting the event fails here.
    if (GetParam() != DesignPoint::SCA) {
        EXPECT_EQ(total, 0u) << "only SCA evicts dirty counter lines";
        return;
    }
    ASSERT_GT(total, 0u);

    for (std::uint64_t nth : {std::uint64_t(1), total / 2, total}) {
        if (nth == 0)
            continue;
        SweepPoint p = runSweepPoint(
            cfg, CrashSpec::atEvent(CrashTriggerKind::DirtyEviction, nth));
        if (!p.crashed)
            continue;
        ASSERT_EQ(p.cls, CrashClass::Consistent)
            << p.spec.describe() << ": " << p.detail;
    }
}

TEST_P(SemanticCrashPoints, CrashAtPairingRecovers)
{
    SystemConfig cfg = config();
    SweepProbe probe = probeRun(cfg);
    std::uint64_t total = probe.countOf(CtlEvent::PairAction);
    // Only the separate-counter designs pair a data entry with its
    // counter entry: FCA for every write, SCA for counter-atomic ones.
    if (GetParam() != DesignPoint::FCA && GetParam() != DesignPoint::SCA) {
        EXPECT_EQ(total, 0u) << "only FCA and SCA perform ready-bit "
                                "pairing";
        return;
    }
    ASSERT_GT(total, 0u);

    for (std::uint64_t nth : {std::uint64_t(1), total / 2, total}) {
        if (nth == 0)
            continue;
        SweepPoint p = runSweepPoint(
            cfg, CrashSpec::atEvent(CrashTriggerKind::PairAction, nth));
        if (!p.crashed)
            continue;
        ASSERT_EQ(p.cls, CrashClass::Consistent)
            << p.spec.describe() << ": " << p.detail;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConsistentDesigns, SemanticCrashPoints,
    ::testing::Values(DesignPoint::NoEncryption, DesignPoint::Ideal,
                      DesignPoint::Colocated, DesignPoint::ColocatedCC,
                      DesignPoint::FCA, DesignPoint::SCA),
    [](const auto &info) {
        std::string n = designName(info.param);
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(CrashSweepTiming, CrashInsideEncryptionPipelineIsSafe)
{
    // Sub-tick precision: crashes offset by sub-40ns amounts around a
    // barrier still recover (entries in the encryption pipeline are
    // simply lost, never half-persisted).
    SystemConfig cfg = sweepConfig(
        {DesignPoint::SCA, WorkloadKind::Queue});
    Tick total = System(cfg).run().endTick;
    for (Tick offset : {Tick(0), nsToTicks(5), nsToTicks(17),
                        nsToTicks(39), nsToTicks(41)}) {
        System sys(cfg);
        RunResult result = sys.runWithCrashAt(total / 2 + offset);
        if (!result.crashed)
            continue;
        std::string why;
        ASSERT_TRUE(sys.recoveredConsistently(&why))
            << "offset " << offset << ": " << why;
    }
}

} // anonymous namespace
} // namespace cnvm
