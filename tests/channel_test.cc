/**
 * @file
 * Multi-channel sharding tests: the interleave map, the shared persist
 * sequencer and the global ADR cut, cross-channel crash consistency,
 * fingerprint identity across channel counts x jobs x modes, and the
 * core-scaling bugfixes that ride along (explicit total counter-cache
 * capacity, the channel-sharded set index, the bank-stagger layout
 * guards).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/crash_sweep.hh"
#include "core/system.hh"
#include "mem/channel_map.hh"
#include "memctl/counter_cache.hh"
#include "memctl/persist_sequencer.hh"

namespace cnvm
{
namespace
{

constexpr Addr kCtrBase = Addr(1) << 33;

SystemConfig
channelConfig(unsigned channels, unsigned cores = 2, unsigned txns = 30)
{
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.numCores = cores;
    cfg.numChannels = channels;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = txns;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.memctl.counterCacheBytes = 64 << 10;
    return cfg;
}

// ----------------------------------------------------------------------
// ChannelMap
// ----------------------------------------------------------------------

TEST(ChannelMap, SingleChannelMapsEverythingToZero)
{
    ChannelMap map(1, kCtrBase);
    for (Addr a : {Addr(0), Addr(256) << 20, kCtrBase, kCtrBase * 2,
                   Addr(0x123456740)})
        EXPECT_EQ(map.channelOf(a), 0u);
}

TEST(ChannelMap, DataInterleavesAtCounterBlockGranule)
{
    ChannelMap map(4, kCtrBase);
    Addr base = Addr(256) << 20;
    // All eight data lines covered by one counter line land together;
    // the next 512 B block lands on the next channel.
    for (unsigned blk = 0; blk < 16; ++blk) {
        unsigned expect = blk % 4;
        for (unsigned line = 0; line < countersPerLine; ++line) {
            Addr a = base + Addr(blk) * ChannelMap::dataGranule
                   + Addr(line) * lineBytes;
            EXPECT_EQ(map.channelOf(a), expect) << "blk " << blk
                                                << " line " << line;
        }
    }
}

TEST(ChannelMap, CounterLineColocatesWithItsDataLines)
{
    // The controller maps data line d to counter line
    //   ctrBase + (d / lineBytes / countersPerLine) * lineBytes;
    // the interleave must send both to the same channel, or a
    // counter-atomic pair would straddle two persist domains.
    ChannelMap map(8, kCtrBase);
    for (Addr d = Addr(256) << 20; d < (Addr(256) << 20) + (1 << 16);
         d += lineBytes) {
        Addr ctr = kCtrBase + (d / lineBytes / countersPerLine) * lineBytes;
        EXPECT_EQ(map.channelOf(d), map.channelOf(ctr))
            << "data " << std::hex << d;
    }
}

TEST(ChannelMap, TreeFlushAddrsAreDistinctAndOwnedByTheirChannel)
{
    ChannelMap map(4, kCtrBase);
    std::set<Addr> addrs;
    for (unsigned ch = 0; ch < 4; ++ch) {
        Addr a = map.treeFlushAddr(ch);
        EXPECT_GE(a, kCtrBase * 2);
        EXPECT_EQ(map.channelOf(a), ch);
        addrs.insert(a);
    }
    EXPECT_EQ(addrs.size(), 4u);
}

// ----------------------------------------------------------------------
// PersistSequencer + the global ADR cut
// ----------------------------------------------------------------------

TEST(PersistSequencer, MonotonicFromOne)
{
    PersistSequencer seq;
    EXPECT_EQ(seq.acquire(), 1u);
    EXPECT_EQ(seq.acquire(), 2u);
}

TEST(DrainKeeps, NoDropKeepsEveryReadyEntry)
{
    std::vector<ChannelReady> ready(2);
    ready[0].dataSeqs = {1, 4};
    ready[1].dataSeqs = {2, 5};
    ready[0].ctrSeqs = {3};
    ready[1].ctrSeqs = {6};
    auto cuts = computeDrainKeeps(ready, 0);
    ASSERT_EQ(cuts.size(), 2u);
    EXPECT_EQ(cuts[0].dataKeep, 2u);
    EXPECT_EQ(cuts[1].dataKeep, 2u);
    EXPECT_EQ(cuts[0].ctrKeep, 1u);
    EXPECT_EQ(cuts[1].ctrKeep, 1u);
}

TEST(DrainKeeps, DropComesOffTheGlobalTailAcrossChannels)
{
    // Global drain order: all ready data by seq, then all ready
    // counters by seq. drop=3 must take the two counters (the global
    // tail) and then the *youngest data entry anywhere* — which lives
    // on channel 1, not on the channel that happens to be listed last.
    std::vector<ChannelReady> ready(2);
    ready[0].dataSeqs = {1, 4};
    ready[1].dataSeqs = {2, 5};
    ready[0].ctrSeqs = {3};
    ready[1].ctrSeqs = {6};
    auto cuts = computeDrainKeeps(ready, 3);
    EXPECT_EQ(cuts[0].dataKeep, 2u);
    EXPECT_EQ(cuts[1].dataKeep, 1u);
    EXPECT_EQ(cuts[0].ctrKeep, 0u);
    EXPECT_EQ(cuts[1].ctrKeep, 0u);
}

TEST(DrainKeeps, DropLargerThanReadySetKeepsNothing)
{
    std::vector<ChannelReady> ready(2);
    ready[0].dataSeqs = {1};
    ready[1].ctrSeqs = {2};
    auto cuts = computeDrainKeeps(ready, 99);
    EXPECT_EQ(cuts[0].dataKeep + cuts[0].ctrKeep, 0u);
    EXPECT_EQ(cuts[1].dataKeep + cuts[1].ctrKeep, 0u);
}

// ----------------------------------------------------------------------
// Cross-channel crash consistency
// ----------------------------------------------------------------------

TEST(MultiChannel, RunsMatchSingleChannelTxnCount)
{
    RunResult one = System(channelConfig(1)).run();
    RunResult four = System(channelConfig(4)).run();
    EXPECT_EQ(one.txnsIssued, four.txnsIssued);
    EXPECT_FALSE(four.crashed);
}

TEST(MultiChannel, PairBlockedWritersAreNotStarved)
{
    // Regression: at high core counts a channel's hot counter line can
    // have a new ready counter write on every drain completion. The
    // completion must let pair-blocked writers re-attempt before the
    // next issue (end-of-tick drain kick), or they starve behind the
    // line forever — a livelock that also grew the router's retry
    // backlog without bound. A memory-bound 8-core/8-channel run sat
    // in exactly that state for minutes before the fix; now it
    // finishes in well under the test timeout.
    SystemConfig cfg = channelConfig(8, 8, 30);
    cfg.wl.regionBytes = 2 << 20;
    cfg.wl.computePerTxn = 0; // memory-bound: maximum pair contention
    RunResult r = System(cfg).run();
    EXPECT_EQ(r.txnsIssued, 8u * 30u);
    EXPECT_FALSE(r.crashed);
}

TEST(MultiChannel, EveryCrashPointRecoversConsistently)
{
    // The directed cross-channel ordering check: a commit record
    // sharded onto one channel must never persist before its undo
    // entries on another. If the global cut ever let that happen, a
    // swept crash point would classify as inconsistent.
    for (unsigned channels : {2u, 4u}) {
        SweepOptions opt;
        opt.points = 14;
        SweepResult r = runSweep(channelConfig(channels), opt);
        EXPECT_EQ(r.inconsistentPoints(), 0u) << channels << " channels";
        EXPECT_EQ(r.silentPoints(), 0u) << channels << " channels";
    }
}

TEST(MultiChannel, FingerprintIdenticalAcrossJobsAndModes)
{
    // Per channel count the sweep fingerprint must be byte-identical
    // at any jobs value and in both Execute strategies. (Fingerprints
    // *differ across channel counts* — more banks and busses change
    // the timing — which is also pinned here so a silently degenerate
    // interleave can't sneak through.)
    std::vector<std::string> per_channel;
    for (unsigned channels : {1u, 2u, 4u}) {
        SystemConfig cfg = channelConfig(channels);
        SweepOptions opt;
        opt.points = 8;
        opt.faults = FaultSpec::allKinds(1);
        cfg.memctl.integrityMac = true;

        opt.jobs = 1;
        opt.mode = SweepMode::Replay;
        std::string ref = runSweep(cfg, opt).fingerprint();
        for (unsigned jobs : {1u, 4u}) {
            for (SweepMode mode : {SweepMode::Replay, SweepMode::Fork}) {
                opt.jobs = jobs;
                opt.mode = mode;
                EXPECT_EQ(runSweep(cfg, opt).fingerprint(), ref)
                    << channels << " channels, jobs " << jobs << ", "
                    << sweepModeName(mode);
            }
        }
        per_channel.push_back(ref);
    }
    EXPECT_NE(per_channel[0], per_channel[1]);
    EXPECT_NE(per_channel[1], per_channel[2]);
}

TEST(MultiChannel, MoreChannelsRaiseSimulatedThroughput)
{
    // The point of sharding: a memory-bound, contended multi-core run
    // has more banks and busses in flight on more channels, so its
    // simulated throughput rises. This is simulated time, not host
    // time, so it holds on any host.
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = 2 << 20;
    cfg.wl.txnTarget = 120;
    cfg.wl.computePerTxn = 0;
    cfg.wl.setupFill = 0.5;
    auto txnRate = [&](unsigned cores, unsigned channels) {
        SystemConfig c = cfg;
        c.numCores = cores;
        c.numChannels = channels;
        System sys(c);
        sys.run();
        return sys.throughputTxnPerSec();
    };
    EXPECT_GT(txnRate(4, 4), txnRate(4, 1));
    EXPECT_GT(txnRate(16, 8), txnRate(16, 1));
}

// ----------------------------------------------------------------------
// Core-scaling bugfixes
// ----------------------------------------------------------------------

TEST(CounterCacheCapacity, TotalIsExplicitNotScaledByCores)
{
    // 64 KB of counter cache covers one core's 32 KB counter working
    // set but not eight cores' 256 KB. The old config rule multiplied
    // the capacity by the core count behind the caller's back, which
    // made the 8-core system fit as comfortably as the 1-core one and
    // washed the contention out of every scaling figure.
    SystemConfig one = channelConfig(1, 1, 60);
    System sys1(one);
    sys1.run();
    double miss1 = sys1.counterCacheMissRate();

    SystemConfig eight = channelConfig(1, 8, 60);
    System sys8(eight);
    sys8.run();
    double miss8 = sys8.counterCacheMissRate();

    EXPECT_LT(miss1, 0.05);
    EXPECT_GT(miss8, miss1 + 0.10);
}

TEST(CounterCacheCapacity, SplitsEvenlyAcrossChannels)
{
    // A total that the channels cannot share as equal power-of-two
    // numbers of 16-way 1 KB sets must be a loud config error, not
    // capacity silently rounded away or an abort inside the cache:
    // uneven bytes, fewer KB than channels, and a share that is not a
    // power of two.
    const struct
    {
        unsigned channels;
        std::uint64_t bytes;
    } cases[] = {{4, (64 << 10) + 2}, {8, 1 << 10}, {1, 24 << 10}};
    for (const auto &c : cases) {
        SystemConfig cfg = channelConfig(c.channels);
        cfg.memctl.counterCacheBytes = c.bytes;
        EXPECT_EXIT({ System sys(cfg); }, ::testing::ExitedWithCode(1),
                    "does not split evenly")
            << c.channels << " channels, " << c.bytes << " B";
    }
}

TEST(ChannelShardedCache, IndexShiftRecoversStrandedSets)
{
    // A 4-channel shard only sees counter-line indices whose low two
    // bits equal its channel id. Without the index shift those
    // constant bits select the set, stranding 3/4 of the cache.
    constexpr std::uint64_t size = 4 << 10; // 16 sets x 4 ways
    constexpr unsigned assoc = 4;
    auto fill = [](CounterCache &cc) {
        // 32 lines with stride 4 lines — the channel-0 shard of a
        // 4-channel system. Half the nominal capacity; all of it must
        // stay resident when the index folds the channel bits out.
        for (unsigned i = 0; i < 32; ++i)
            cc.install(kCtrBase + Addr(i) * 4 * lineBytes, CounterLine{},
                       0);
        return cc.validCount();
    };
    CounterCache aliased(size, assoc, nullptr, "cc_alias.", 0);
    CounterCache sharded(size, assoc, nullptr, "cc_shard.", 2);
    EXPECT_EQ(fill(aliased), 16u); // 4 reachable sets x 4 ways
    EXPECT_EQ(fill(sharded), 32u);
}

TEST(RegionLayout, StaggeredRegionOverflowingCounterSpaceFailsLoudly)
{
    // Park the data region just below the counter store: the padded
    // stride plus bank stagger pushes core 1's region across the
    // boundary, which must be a loud layout error, not silent
    // corruption of the counter shard.
    SystemConfig cfg = channelConfig(1, 2, 5);
    cfg.dataRegionBase = kCtrBase - (1 << 20);
    cfg.wl.regionBytes = 512 << 10;
    EXPECT_EXIT({ System sys(cfg); }, ::testing::ExitedWithCode(1),
                "overflows into the counter region");
}

TEST(RegionLayout, StaggeredRegionsStayDisjointAtManyCores)
{
    // The stride is padded by the maximum stagger, so even a core
    // count that drives the stagger past a megabyte keeps every
    // region inside its own slot.
    SystemConfig cfg = channelConfig(1, 12, 2);
    cfg.wl.regionBytes = 1 << 20;
    System sys(cfg);
    for (unsigned i = 0; i + 1 < cfg.numCores; ++i)
        EXPECT_LE(sys.workload(i).regionEnd(),
                  sys.workload(i + 1).regionBase());
}

} // anonymous namespace
} // namespace cnvm
