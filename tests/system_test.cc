/**
 * @file
 * End-to-end system tests: whole-stack runs per design, metric sanity,
 * multi-core completion, and the performance orderings the paper's
 * evaluation rests on.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"

namespace cnvm
{
namespace
{

SystemConfig
smallConfig(DesignPoint design,
            WorkloadKind kind = WorkloadKind::ArraySwap,
            unsigned cores = 1, unsigned txns = 40)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = kind;
    cfg.numCores = cores;
    cfg.wl.regionBytes = 512 << 10;
    cfg.wl.txnTarget = txns;
    cfg.wl.computePerTxn = 200;
    return cfg;
}

TEST(System, RunsToCompletion)
{
    System sys(smallConfig(DesignPoint::SCA));
    RunResult result = sys.run();
    EXPECT_FALSE(result.crashed);
    EXPECT_EQ(result.txnsIssued, 40u);
    EXPECT_GT(result.endTick, 0u);
    EXPECT_GT(sys.runtimeNs(), 0.0);
    EXPECT_GT(sys.throughputTxnPerSec(), 0.0);
}

TEST(System, EveryDesignCompletesEveryWorkload)
{
    for (DesignPoint d : {DesignPoint::NoEncryption, DesignPoint::Ideal,
                          DesignPoint::Colocated, DesignPoint::ColocatedCC,
                          DesignPoint::FCA, DesignPoint::SCA,
                          DesignPoint::Unsafe}) {
        for (WorkloadKind w : allWorkloadKinds()) {
            System sys(smallConfig(d, w, 1, 10));
            RunResult result = sys.run();
            EXPECT_EQ(result.txnsIssued, 10u)
                << designName(d) << " / " << workloadKindName(w);
        }
    }
}

TEST(System, MultiCoreAllCoresFinish)
{
    System sys(smallConfig(DesignPoint::SCA, WorkloadKind::Queue, 4, 20));
    RunResult result = sys.run();
    EXPECT_EQ(result.txnsIssued, 4u * 20u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(sys.workload(i).txnsIssued(), 20u);
}

TEST(System, CoresUseDisjointRegions)
{
    System sys(smallConfig(DesignPoint::SCA, WorkloadKind::ArraySwap, 4,
                           5));
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = i + 1; j < 4; ++j) {
            Addr i_base = sys.workload(i).regionBase();
            Addr i_end = sys.workload(i).regionEnd();
            Addr j_base = sys.workload(j).regionBase();
            Addr j_end = sys.workload(j).regionEnd();
            EXPECT_TRUE(i_end <= j_base || j_end <= i_base);
        }
    }
}

TEST(System, DeterministicRuntimeForSameSeed)
{
    System a(smallConfig(DesignPoint::SCA));
    System b(smallConfig(DesignPoint::SCA));
    EXPECT_EQ(a.run().endTick, b.run().endTick);
}

TEST(System, SeedChangesExecution)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    System a(cfg);
    cfg.wl.seed = 777;
    System b(cfg);
    EXPECT_NE(a.run().endTick, b.run().endTick);
}

TEST(System, EncryptionCostsTime)
{
    // Any encrypted design is at least as slow as no encryption.
    Tick base = 0;
    {
        System sys(smallConfig(DesignPoint::NoEncryption));
        base = sys.run().endTick;
    }
    for (DesignPoint d : {DesignPoint::Ideal, DesignPoint::SCA,
                          DesignPoint::FCA, DesignPoint::Colocated}) {
        System sys(smallConfig(d));
        EXPECT_GE(sys.run().endTick, base) << designName(d);
    }
}

TEST(System, ScaNotSlowerThanColocatedOnReadHeavyWorkload)
{
    // The headline Figure-12 relation on a pointer-chasing workload:
    // serialized decryption makes the co-located design slower.
    SystemConfig sca = smallConfig(DesignPoint::SCA, WorkloadKind::BTree,
                                   1, 60);
    sca.wl.regionBytes = 4 << 20;
    SystemConfig colo = sca;
    colo.design = DesignPoint::Colocated;
    Tick sca_time = System(sca).run().endTick;
    Tick colo_time = System(colo).run().endTick;
    EXPECT_LT(sca_time, colo_time);
}

TEST(System, FcaWritesMoreBytesThanSca)
{
    // Figure 14: FCA's line-granular counter updates inflate traffic.
    SystemConfig base = smallConfig(DesignPoint::SCA,
                                    WorkloadKind::ArraySwap, 1, 60);
    System sca(base);
    sca.run();
    base.design = DesignPoint::FCA;
    System fca(base);
    fca.run();
    EXPECT_GT(fca.nvmBytesWritten(), sca.nvmBytesWritten());
}

TEST(System, EncryptedDesignsWriteMoreThanPlain)
{
    SystemConfig base = smallConfig(DesignPoint::NoEncryption);
    System plain(base);
    plain.run();
    base.design = DesignPoint::SCA;
    System sca(base);
    sca.run();
    EXPECT_GT(sca.nvmBytesWritten(), plain.nvmBytesWritten());
}

TEST(System, CounterCacheMissRateSane)
{
    System sys(smallConfig(DesignPoint::SCA));
    sys.run();
    double rate = sys.counterCacheMissRate();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    // No counter cache at all:
    System plain(smallConfig(DesignPoint::NoEncryption));
    plain.run();
    EXPECT_EQ(plain.counterCacheMissRate(), 0.0);
}

TEST(System, CrashStopsExecution)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    Tick total = System(cfg).run().endTick;
    System sys(cfg);
    RunResult result = sys.runWithCrashAt(total / 2);
    EXPECT_TRUE(result.crashed);
    EXPECT_EQ(result.endTick, total / 2);
    EXPECT_LT(result.txnsIssued, 40u);
}

TEST(System, CrashAfterCompletionNeverFires)
{
    // A power failure the run never reaches is disarmed when the cores
    // finish, and must leave no trace: the same end tick and a
    // byte-identical full stats dump as an unarmed run. That holds for
    // a tick past the end, whose disarmed failure still runs as a
    // no-op in the settle pass, and for a semantic ordinal the run
    // never reaches.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    System plain(cfg);
    RunResult plain_result = plain.run();
    std::ostringstream plain_stats;
    plain.statsRegistry().dump(plain_stats);

    for (const CrashSpec &spec :
         {CrashSpec::atTick(plain_result.endTick * 10),
          CrashSpec::atEvent(CrashTriggerKind::DataDrain, 1u << 30)}) {
        System sys(cfg);
        RunResult result = sys.runWithCrash(spec);
        std::ostringstream stats;
        sys.statsRegistry().dump(stats);
        EXPECT_FALSE(result.crashed) << spec.describe();
        EXPECT_FALSE(sys.crashSnapshot().valid) << spec.describe();
        EXPECT_EQ(result.txnsIssued, 40u) << spec.describe();
        EXPECT_EQ(result.endTick, plain_result.endTick) << spec.describe();
        EXPECT_EQ(stats.str(), plain_stats.str()) << spec.describe();
    }
}

TEST(System, WarmsCounterCacheInTableOrder)
{
    // Build warms each channel's counter cache by walking each core's
    // shadow in ascending address order, core by core. The 16 KB cache
    // holds fewer counter lines than setup touched, so the order decides
    // which lines are resident: a cold twin warmed that way by hand
    // must run to the same stats dump.
    for (WorkloadKind kind : {WorkloadKind::HashTable, WorkloadKind::BTree,
                              WorkloadKind::ArraySwap}) {
        SystemConfig cfg = smallConfig(DesignPoint::SCA, kind, 2, 60);
        cfg.numChannels = 2;
        cfg.memctl.counterCacheBytes = 16 << 10;
        System warm(cfg);
        cfg.warmCounterCache = false;
        System twin(cfg);
        const ChannelMap &map = twin.nvm().channelMap();
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            twin.workload(c).shadowMem().table().forEach(
                [&](Addr addr, const LineData &) {
                    twin.controller(map.channelOf(addr))
                        .warmCounterLine(addr);
                });
        }
        std::ostringstream warm_stats, twin_stats;
        warm.run();
        warm.statsRegistry().dump(warm_stats);
        twin.run();
        twin.statsRegistry().dump(twin_stats);
        EXPECT_EQ(warm_stats.str(), twin_stats.str())
            << workloadKindName(kind);
    }
}

TEST(System, EachCoreLiveViewStartsAsItsShadow)
{
    // Right after build, each core's live view is a copy of its own
    // shadow: every line the shadow holds reads the same through
    // live(c), and the other core's view holds none of those bytes.
    System sys(smallConfig(DesignPoint::SCA, WorkloadKind::RbTree, 2,
                           30));
    for (unsigned c = 0; c < 2; ++c) {
        const ShadowMem &shadow = sys.workload(c).shadowMem();
        ASSERT_GT(shadow.touchedLines(), 0u) << "core " << c;
        unsigned mismatches = 0;
        unsigned foreign = 0;
        shadow.table().forEach([&](Addr addr, const LineData &expect) {
            mismatches += sys.live(c).read(addr) != expect;
            foreign += sys.live(1 - c).read(addr) != LineData{};
        });
        EXPECT_EQ(mismatches, 0u) << "core " << c;
        EXPECT_EQ(foreign, 0u) << "core " << c;
    }
}

TEST(System, LiveShadowMatchesLivePlainAfterRun)
{
    // Each core's host shadow and its live view must agree
    // byte-for-byte once execution quiesces: every store the core
    // retired reached its live view.
    System sys(smallConfig(DesignPoint::SCA, WorkloadKind::RbTree, 2,
                           30));
    sys.run();
    for (unsigned c = 0; c < 2; ++c) {
        unsigned mismatches = 0;
        sys.workload(c).shadowMem().table().forEach(
            [&](Addr addr, const LineData &expect) {
                mismatches += sys.live(c).read(addr) != expect;
            });
        EXPECT_EQ(mismatches, 0u) << "core " << c;
    }
}

TEST(System, PowerFailureDropsLiveView)
{
    // A power failure persists none of any core's live view: after it,
    // a line each core's run stored reads as zeros there.
    System sys(smallConfig(DesignPoint::SCA, WorkloadKind::RbTree, 2,
                           30));
    sys.run();
    std::vector<Addr> stored;
    for (unsigned c = 0; c < 2; ++c) {
        bool found = false;
        sys.workload(c).shadowMem().table().forEach(
            [&](Addr addr, const LineData &data) {
                if (!found && data != LineData{}) {
                    stored.push_back(addr);
                    found = true;
                }
            });
        ASSERT_TRUE(found) << "core " << c;
        ASSERT_NE(sys.live(c).read(stored[c]), LineData{}) << "core " << c;
    }
    sys.crashChannels();
    for (unsigned c = 0; c < 2; ++c)
        EXPECT_EQ(sys.live(c).read(stored[c]), LineData{}) << "core " << c;
}

TEST(System, StatsRegistryPopulated)
{
    System sys(smallConfig(DesignPoint::SCA));
    sys.run();
    auto &reg = sys.statsRegistry();
    EXPECT_NE(reg.find("nvm.bytes_written"), nullptr);
    EXPECT_NE(reg.find("memctl.ch0.data_inserts"), nullptr);
    EXPECT_NE(reg.find("core0.loads"), nullptr);
    EXPECT_GT(reg.lookup("core0.loads"), 0.0);
    EXPECT_GT(reg.lookup("core0.fences"), 0.0);
}

TEST(System, ChannelZeroStatsUseTheChannelPrefix)
{
    // Channel 0 registers under `memctl.ch0.` / `ctrcache.ch0.` like
    // every other channel; the flat unsuffixed names do not exist.
    System sys(smallConfig(DesignPoint::SCA));
    sys.run();
    auto &reg = sys.statsRegistry();
    ASSERT_NE(reg.find("memctl.ch0.data_inserts"), nullptr);
    EXPECT_GT(reg.lookup("memctl.ch0.data_inserts"), 0.0);
    EXPECT_NE(reg.find("ctrcache.ch0.read_hits"), nullptr);
    EXPECT_EQ(reg.find("memctl.data_inserts"), nullptr);
    EXPECT_EQ(reg.find("ctrcache.read_hits"), nullptr);

    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("\nmemctl.ch0.data_inserts "),
              std::string::npos);
    EXPECT_EQ(os.str().find("\nmemctl.data_inserts"), std::string::npos);
}

TEST(System, DescribeMentionsDesignAndWorkload)
{
    System sys(smallConfig(DesignPoint::FCA, WorkloadKind::BTree));
    std::string desc = sys.describe();
    EXPECT_NE(desc.find("FCA"), std::string::npos);
    EXPECT_NE(desc.find("B-Tree"), std::string::npos);
}

TEST(System, NvmLatencyScalingSlowsRuns)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    Tick base = System(cfg).run().endTick;
    cfg.nvm = NvmTiming::pcm().scaled(5.0, 5.0);
    Tick slow = System(cfg).run().endTick;
    EXPECT_GT(slow, base);
}

} // anonymous namespace
} // namespace cnvm
