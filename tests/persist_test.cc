/**
 * @file
 * Unit tests for the selective counter-atomicity primitives
 * (paper section 4.3) and the end-to-end semantics they carry through
 * the simulated system.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "persist/primitives.hh"

namespace cnvm
{
namespace
{

TEST(Primitives, CounterAtomicStoreCarriesAnnotation)
{
    std::uint64_t v = 42;
    Op op = persist::counterAtomicStore(0x1000, &v, sizeof(v));
    EXPECT_EQ(op.type, OpType::Store);
    EXPECT_TRUE(op.counterAtomic);
    EXPECT_EQ(op.addr, 0x1000u);
    EXPECT_EQ(op.size, 8u);
}

TEST(Primitives, CounterCacheWritebackTargetsAddress)
{
    Op op = persist::counterCacheWriteback(0x12345);
    EXPECT_EQ(op.type, OpType::CtrWb);
    EXPECT_EQ(op.addr, 0x12345u);
}

TEST(Primitives, PersistBarrierShape)
{
    std::vector<Op> ops;
    persist::persistBarrier(ops, {0x1000, 0x2000, 0x3000});
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].type, OpType::Clwb);
    EXPECT_EQ(ops[1].type, OpType::Clwb);
    EXPECT_EQ(ops[2].type, OpType::Clwb);
    EXPECT_EQ(ops[3].type, OpType::Fence);
}

TEST(Primitives, SelectiveBarrierDeduplicatesCounterLines)
{
    std::vector<Op> ops;
    // Three lines, two of which share a 512 B counter group.
    persist::selectiveBarrier(ops, {0x1000, 0x1040, 0x20000});
    unsigned clwbs = 0, ctrwbs = 0, fences = 0;
    for (const Op &op : ops) {
        clwbs += op.type == OpType::Clwb ? 1 : 0;
        ctrwbs += op.type == OpType::CtrWb ? 1 : 0;
        fences += op.type == OpType::Fence ? 1 : 0;
    }
    EXPECT_EQ(clwbs, 3u);
    EXPECT_EQ(ctrwbs, 2u); // one per distinct counter line
    EXPECT_EQ(fences, 1u);
}

TEST(Primitives, SelectiveBarrierOrdering)
{
    std::vector<Op> ops;
    persist::selectiveBarrier(ops, {0x1000});
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].type, OpType::Clwb);
    EXPECT_EQ(ops[1].type, OpType::CtrWb);
    EXPECT_EQ(ops[2].type, OpType::Fence);
}

TEST(Op, StoreRejectsLineCrossing)
{
    // A store may not cross a cache line (checked by assertion); a
    // maximal legal store touches exactly one full line.
    std::uint8_t buf[lineBytes] = {};
    Op op = Op::store(0x1000, buf, lineBytes);
    EXPECT_EQ(op.size, lineBytes);
}

TEST(DesignTraits, EncryptionAndCacheFlags)
{
    EXPECT_FALSE(designEncrypts(DesignPoint::NoEncryption));
    EXPECT_TRUE(designEncrypts(DesignPoint::SCA));
    EXPECT_TRUE(designEncrypts(DesignPoint::Unsafe));

    EXPECT_FALSE(designHasCounterCache(DesignPoint::NoEncryption));
    EXPECT_FALSE(designHasCounterCache(DesignPoint::Colocated));
    EXPECT_TRUE(designHasCounterCache(DesignPoint::ColocatedCC));
    EXPECT_TRUE(designHasCounterCache(DesignPoint::SCA));

    EXPECT_FALSE(designSeparateCounters(DesignPoint::Colocated));
    EXPECT_TRUE(designSeparateCounters(DesignPoint::FCA));

    EXPECT_TRUE(designCrashConsistent(DesignPoint::SCA));
    EXPECT_FALSE(designCrashConsistent(DesignPoint::Unsafe));
}

TEST(DesignTraits, NamesAreUnique)
{
    std::set<std::string> names;
    for (DesignPoint d : {DesignPoint::NoEncryption, DesignPoint::Ideal,
                          DesignPoint::Colocated, DesignPoint::ColocatedCC,
                          DesignPoint::FCA, DesignPoint::SCA,
                          DesignPoint::Unsafe})
        names.insert(designName(d));
    EXPECT_EQ(names.size(), 7u);
}

/**
 * End-to-end: a hand-written "program" using the raw primitives (the
 * paper's Figure 9 pattern, without the UndoTx library) is crash
 * consistent under SCA.
 */
class RawPrimitiveSource : public OpSource
{
  public:
    bool
    next(std::vector<Op> &out) override
    {
        if (delivered)
            return false;
        delivered = true;

        // "Prepare": write a backup value, flush data + counters.
        std::uint64_t backup = 0x0123456789abcdefull;
        out.push_back(Op::store(kLog, &backup, 8));
        persist::selectiveBarrier(out, {kLog});

        // "Mutate": update the data in place.
        std::uint64_t value = 0xfeedfacecafebeefull;
        out.push_back(Op::store(kData, &value, 8));
        persist::selectiveBarrier(out, {kData});

        // "Commit": one CounterAtomic store flips the valid flag.
        std::uint64_t invalid = 0;
        out.push_back(persist::counterAtomicStore(kValid, &invalid, 8));
        out.push_back(Op::clwb(kValid));
        out.push_back(Op::fence());
        return true;
    }

    static constexpr Addr kLog = 0x100000;
    static constexpr Addr kData = 0x200000;
    static constexpr Addr kValid = 0x100040;

  private:
    bool delivered = false;
};

TEST(Primitives, RawFigure9PatternPersistsUnderSca)
{
    EventQueue eq;
    NvmDevice nvm(NvmTiming::pcm(), nullptr);
    MemCtlConfig mc;
    mc.design = DesignPoint::SCA;
    MemController ctl(eq, nvm, mc, nullptr);
    CachePathConfig cache;
    LiveView live;
    CoreMemPath path(eq, ClockDomain(250), ctl, live, cache, 0, nullptr);
    RawPrimitiveSource program;
    Core core(eq, ClockDomain(250), path, program, 0, nullptr);
    core.start();
    eq.run();
    ASSERT_TRUE(core.finished());

    // Power failure after completion: every stage's lines decrypt.
    ctl.crash();
    RecoveredImage image(nvm.persistedState(), ctl);
    EXPECT_EQ(image.readU64(RawPrimitiveSource::kLog),
              0x0123456789abcdefull);
    EXPECT_EQ(image.readU64(RawPrimitiveSource::kData),
              0xfeedfacecafebeefull);
    EXPECT_EQ(image.readU64(RawPrimitiveSource::kValid), 0u);
}

TEST(Primitives, RawPatternWithoutCtrwbTearsUnderSca)
{
    // The same program minus the counter_cache_writeback() calls: the
    // mutate-stage line's counter never persists, so after a crash the
    // data line is torn. This is exactly the programmer obligation the
    // paper's section 4.3 discussion assigns to the primitives.
    class NoCtrwbSource : public OpSource
    {
      public:
        bool
        next(std::vector<Op> &out) override
        {
            if (delivered)
                return false;
            delivered = true;
            std::uint64_t value = 0xfeedfacecafebeefull;
            out.push_back(Op::store(0x200000, &value, 8));
            out.push_back(Op::clwb(0x200000));
            out.push_back(Op::fence());
            return true;
        }

      private:
        bool delivered = false;
    };

    EventQueue eq;
    NvmDevice nvm(NvmTiming::pcm(), nullptr);
    MemCtlConfig mc;
    mc.design = DesignPoint::SCA;
    MemController ctl(eq, nvm, mc, nullptr);
    CachePathConfig cache;
    LiveView live;
    CoreMemPath path(eq, ClockDomain(250), ctl, live, cache, 0, nullptr);
    NoCtrwbSource program;
    Core core(eq, ClockDomain(250), path, program, 0, nullptr);
    core.start();
    eq.run();
    ASSERT_TRUE(core.finished());

    ctl.crash();
    RecoveredImage image(nvm.persistedState(), ctl);
    EXPECT_NE(image.readU64(0x200000), 0xfeedfacecafebeefull);
}

} // anonymous namespace
} // namespace cnvm
