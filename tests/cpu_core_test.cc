/**
 * @file
 * Unit tests for the in-order core: op execution, fence semantics
 * (sfence waits for clwb/counter_cache_writeback acceptance), halting,
 * and completion tracking. Uses a scriptable memory path via the same
 * fake backend approach as the CoreMemPath tests.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cpu/core.hh"
#include "sim/eventq.hh"

namespace cnvm
{
namespace
{

/** Fixed-latency backend whose write acceptance can be deferred. */
class FakeBackend : public MemBackend
{
  public:
    explicit FakeBackend(EventQueue &eq) : eq(eq) {}

    void
    issueRead(Addr, ReadCallback done) override
    {
        ++reads;
        scheduleAfter(eq, nsToTicks(70), std::move(done));
    }

    bool
    tryWrite(const WriteReq &req) override
    {
        ++writes;
        if (req.accepted) {
            if (deferAcceptance)
                pendingAccepts.push_back(req.accepted);
            else
                scheduleAfter(eq, nsToTicks(5), req.accepted);
        }
        return true;
    }

    bool
    tryCtrWriteback(Addr, std::function<void()> accepted) override
    {
        ++ctrwbs;
        if (accepted) {
            if (deferAcceptance)
                pendingAccepts.push_back(accepted);
            else
                scheduleAfter(eq, nsToTicks(5), accepted);
        }
        return true;
    }

    void
    releaseAccepts()
    {
        for (auto &cb : pendingAccepts)
            scheduleAfter(eq, 1, cb);
        pendingAccepts.clear();
    }

    void registerRetry(std::function<void()>) override {}

    EventQueue &eq;
    bool deferAcceptance = false;
    unsigned reads = 0;
    unsigned writes = 0;
    unsigned ctrwbs = 0;
    std::vector<std::function<void()>> pendingAccepts;
};

/** Op source playing a fixed script once. */
class ScriptSource : public OpSource
{
  public:
    explicit ScriptSource(std::vector<Op> script)
        : script(std::move(script))
    {}

    bool
    next(std::vector<Op> &out) override
    {
        if (delivered || script.empty())
            return false;
        delivered = true;
        out = script;
        return true;
    }

  private:
    std::vector<Op> script;
    bool delivered = false;
};

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : backend(eq) {}

    /** Builds a core over the script and runs it to completion. */
    Tick
    runScript(std::vector<Op> script)
    {
        CachePathConfig cache;
        cache.l1Bytes = 1024;
        cache.l2Bytes = 4096;
        cache.l1Assoc = 2;
        cache.l2Assoc = 4;
        path = std::make_unique<CoreMemPath>(eq, ClockDomain(250),
                                             backend, live, cache, 0,
                                             nullptr);
        source = std::make_unique<ScriptSource>(std::move(script));
        core = std::make_unique<Core>(eq, ClockDomain(250), *path,
                                      *source, 0, nullptr);
        core->start();
        eq.run();
        return core->finished() ? core->finishedAt() : maxTick;
    }

    static Op
    store64(Addr addr, std::uint64_t v)
    {
        return Op::store(addr, &v, sizeof(v));
    }

    EventQueue eq;
    FakeBackend backend;
    LiveView live;
    std::unique_ptr<CoreMemPath> path;
    std::unique_ptr<ScriptSource> source;
    std::unique_ptr<Core> core;
};

TEST_F(CoreTest, EmptySourceFinishesImmediately)
{
    CachePathConfig cache;
    cache.l1Bytes = 1024;
    cache.l2Bytes = 4096;
    cache.l1Assoc = 2;
    cache.l2Assoc = 4;
    path = std::make_unique<CoreMemPath>(eq, ClockDomain(250), backend,
                                         live, cache, 0, nullptr);
    ScriptSource empty({});
    Core c(eq, ClockDomain(250), *path, empty, 0, nullptr);
    bool notified = false;
    c.setOnFinished([&]() { notified = true; });
    c.start();
    eq.run();
    EXPECT_TRUE(c.finished());
    EXPECT_TRUE(notified);
}

TEST_F(CoreTest, ComputeAdvancesByCycles)
{
    Tick end = runScript({Op::compute(1000)});
    // 1000 cycles at 250 ps, plus the scheduling cycle granularity.
    EXPECT_GE(end, 1000u * 250);
    EXPECT_LT(end, 1100u * 250);
}

TEST_F(CoreTest, LoadBlocksUntilData)
{
    Tick end = runScript({Op::load(0x10000)});
    EXPECT_GE(end, nsToTicks(70)); // the backend's read latency
    EXPECT_EQ(backend.reads, 1u);
}

TEST_F(CoreTest, SequentialLoadsSerializeOnMisses)
{
    Tick one = runScript({Op::load(0x10000)});
    FakeBackend backend2(eq);
    // Fresh fixture state: reuse runScript with two distinct lines.
    Tick two = runScript({Op::load(0x20000), Op::load(0x30000)});
    EXPECT_GT(two, one + nsToTicks(60)); // no overlap in-order
}

TEST_F(CoreTest, FenceWithoutPersistsIsCheap)
{
    Tick end = runScript({Op::fence(), Op::fence()});
    EXPECT_LT(end, nsToTicks(10));
}

TEST_F(CoreTest, FenceWaitsForClwbAcceptance)
{
    backend.deferAcceptance = true;
    std::vector<Op> script = {
        store64(0x10000, 7),
        Op::clwb(0x10000),
        Op::fence(),
    };

    CachePathConfig cache;
    cache.l1Bytes = 1024;
    cache.l2Bytes = 4096;
    cache.l1Assoc = 2;
    cache.l2Assoc = 4;
    path = std::make_unique<CoreMemPath>(eq, ClockDomain(250), backend,
                                         live, cache, 0, nullptr);
    source = std::make_unique<ScriptSource>(script);
    core = std::make_unique<Core>(eq, ClockDomain(250), *path, *source,
                                  0, nullptr);
    core->start();
    eq.run();
    // The fence blocks on the unaccepted writeback: not finished.
    EXPECT_FALSE(core->finished());

    backend.releaseAccepts();
    eq.run();
    EXPECT_TRUE(core->finished());
}

TEST_F(CoreTest, FenceWaitsForCtrwbAcceptance)
{
    backend.deferAcceptance = true;
    std::vector<Op> script = {Op::ctrwb(0x10000), Op::fence()};

    CachePathConfig cache;
    cache.l1Bytes = 1024;
    cache.l2Bytes = 4096;
    cache.l1Assoc = 2;
    cache.l2Assoc = 4;
    path = std::make_unique<CoreMemPath>(eq, ClockDomain(250), backend,
                                         live, cache, 0, nullptr);
    source = std::make_unique<ScriptSource>(script);
    core = std::make_unique<Core>(eq, ClockDomain(250), *path, *source,
                                  0, nullptr);
    core->start();
    eq.run();
    EXPECT_FALSE(core->finished());
    backend.releaseAccepts();
    eq.run();
    EXPECT_TRUE(core->finished());
}

TEST_F(CoreTest, ClwbDoesNotBlockExecution)
{
    backend.deferAcceptance = true;
    // After the clwb, compute continues even though acceptance is
    // stuck; only the terminal bookkeeping waits.
    std::vector<Op> script = {
        store64(0x10000, 7),
        Op::clwb(0x10000),
        Op::compute(100),
    };
    CachePathConfig cache;
    cache.l1Bytes = 1024;
    cache.l2Bytes = 4096;
    cache.l1Assoc = 2;
    cache.l2Assoc = 4;
    path = std::make_unique<CoreMemPath>(eq, ClockDomain(250), backend,
                                         live, cache, 0, nullptr);
    source = std::make_unique<ScriptSource>(script);
    core = std::make_unique<Core>(eq, ClockDomain(250), *path, *source,
                                  0, nullptr);
    core->start();
    eq.run();
    // Compute retired (stats prove it) even though the core has an
    // outstanding persist.
    EXPECT_EQ(core->computeOps.value(), 1.0);
    EXPECT_FALSE(core->finished());
    backend.releaseAccepts();
    eq.run();
    EXPECT_TRUE(core->finished());
}

TEST_F(CoreTest, HaltStopsFurtherOps)
{
    std::vector<Op> script;
    for (int i = 0; i < 100; ++i)
        script.push_back(Op::load(0x10000 + i * 0x1000));
    CachePathConfig cache;
    cache.l1Bytes = 1024;
    cache.l2Bytes = 4096;
    cache.l1Assoc = 2;
    cache.l2Assoc = 4;
    path = std::make_unique<CoreMemPath>(eq, ClockDomain(250), backend,
                                         live, cache, 0, nullptr);
    source = std::make_unique<ScriptSource>(script);
    core = std::make_unique<Core>(eq, ClockDomain(250), *path, *source,
                                  0, nullptr);
    core->start();
    scheduleAt(eq, nsToTicks(200), [&]() { core->halt(); });
    eq.run();
    EXPECT_FALSE(core->finished());
    EXPECT_LT(backend.reads, 100u);
}

TEST_F(CoreTest, StatsCountOps)
{
    stats::StatRegistry reg;
    CachePathConfig cache;
    cache.l1Bytes = 1024;
    cache.l2Bytes = 4096;
    cache.l1Assoc = 2;
    cache.l2Assoc = 4;
    path = std::make_unique<CoreMemPath>(eq, ClockDomain(250), backend,
                                         live, cache, 0, nullptr);
    std::vector<Op> script = {
        Op::load(0x10000), store64(0x10000, 1), Op::clwb(0x10000),
        Op::ctrwb(0x10000), Op::fence(), Op::compute(10),
    };
    source = std::make_unique<ScriptSource>(script);
    Core c(eq, ClockDomain(250), *path, *source, 5, &reg);
    c.start();
    eq.run();
    EXPECT_EQ(reg.lookup("core5.loads"), 1.0);
    EXPECT_EQ(reg.lookup("core5.stores"), 1.0);
    EXPECT_EQ(reg.lookup("core5.clwbs"), 1.0);
    EXPECT_EQ(reg.lookup("core5.ctrwbs"), 1.0);
    EXPECT_EQ(reg.lookup("core5.fences"), 1.0);
    EXPECT_EQ(reg.lookup("core5.compute_ops"), 1.0);
}

TEST_F(CoreTest, FenceStallTicksAccumulate)
{
    stats::StatRegistry reg;
    backend.deferAcceptance = true;
    CachePathConfig cache;
    cache.l1Bytes = 1024;
    cache.l2Bytes = 4096;
    cache.l1Assoc = 2;
    cache.l2Assoc = 4;
    path = std::make_unique<CoreMemPath>(eq, ClockDomain(250), backend,
                                         live, cache, 0, nullptr);
    std::vector<Op> script = {
        store64(0x10000, 1), Op::clwb(0x10000), Op::fence(),
    };
    source = std::make_unique<ScriptSource>(script);
    Core c(eq, ClockDomain(250), *path, *source, 6, &reg);
    c.start();
    eq.run();
    scheduleAt(eq, nsToTicks(500), [&]() { backend.releaseAccepts(); });
    eq.run();
    EXPECT_TRUE(c.finished());
    EXPECT_GT(reg.lookup("core6.fence_stall_ticks"), nsToTicks(300));
}

} // anonymous namespace
} // namespace cnvm
