/**
 * @file
 * Unit tests for the per-core L1/L2 path, using a scriptable fake
 * memory backend: hit/miss latencies, write-allocate stores, clwb
 * acceptance, eviction writebacks, inclusion, and backpressure.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "mem/core_mem_path.hh"
#include "sim/eventq.hh"

namespace cnvm
{
namespace
{

/** Backend with fixed read latency and scriptable write acceptance. */
class FakeBackend : public MemBackend
{
  public:
    explicit FakeBackend(EventQueue &eq) : eq(eq) {}

    void
    issueRead(Addr addr, ReadCallback done) override
    {
        ++reads;
        lastReadAddr = addr;
        scheduleAfter(eq, readLatency, std::move(done));
    }

    bool
    tryWrite(const WriteReq &req) override
    {
        if (refuseWrites) {
            ++refusals;
            return false;
        }
        writes.push_back(req);
        if (req.accepted)
            scheduleAfter(eq, acceptLatency, req.accepted);
        return true;
    }

    bool
    tryCtrWriteback(Addr addr, std::function<void()> accepted) override
    {
        if (refuseWrites) {
            ++refusals;
            return false;
        }
        ctrwbs.push_back(addr);
        if (accepted)
            scheduleAfter(eq, acceptLatency, accepted);
        return true;
    }

    void
    registerRetry(std::function<void()> retry) override
    {
        retries.push_back(std::move(retry));
    }

    void
    fireRetries()
    {
        auto pending = std::move(retries);
        retries.clear();
        for (auto &cb : pending)
            cb();
    }

    EventQueue &eq;
    Tick readLatency = nsToTicks(70);
    Tick acceptLatency = nsToTicks(5);
    bool refuseWrites = false;
    unsigned reads = 0;
    unsigned refusals = 0;
    Addr lastReadAddr = 0;
    std::vector<WriteReq> writes;
    std::vector<Addr> ctrwbs;
    std::vector<std::function<void()>> retries;
};

class CoreMemPathTest : public ::testing::Test
{
  protected:
    CoreMemPathTest()
        : backend(eq),
          path(eq, ClockDomain(250), backend, live, smallConfig(), 0,
               nullptr)
    {}

    static CachePathConfig
    smallConfig()
    {
        CachePathConfig cfg;
        cfg.l1Bytes = 1024;   // 16 lines
        cfg.l1Assoc = 2;
        cfg.l1Cycles = 4;
        cfg.l2Bytes = 4096;   // 64 lines
        cfg.l2Assoc = 4;
        cfg.l2Cycles = 20;
        return cfg;
    }

    /** Runs a load and returns its completion latency in ticks. */
    Tick
    loadLatency(Addr addr)
    {
        Tick start = eq.curTick();
        Tick done = 0;
        path.load(addr, [&]() { done = eq.curTick(); });
        eq.run();
        return done - start;
    }

    void
    storeNow(Addr addr, std::uint64_t value, bool ca = false)
    {
        path.store(addr, sizeof(value),
                   reinterpret_cast<const std::uint8_t *>(&value), ca,
                   []() {});
        eq.run();
    }

    EventQueue eq;
    FakeBackend backend;
    LiveView live;
    CoreMemPath path;
};

TEST_F(CoreMemPathTest, ColdLoadGoesToMemory)
{
    Tick lat = loadLatency(0x10000);
    EXPECT_EQ(backend.reads, 1u);
    EXPECT_EQ(backend.lastReadAddr, 0x10000u);
    // l1 (4cy) + l2 (20cy) at 250 ps + 70 ns memory.
    EXPECT_EQ(lat, 24 * 250 + nsToTicks(70));
}

TEST_F(CoreMemPathTest, SecondLoadHitsL1)
{
    loadLatency(0x10000);
    Tick lat = loadLatency(0x10000);
    EXPECT_EQ(backend.reads, 1u); // no new memory read
    EXPECT_EQ(lat, 4 * 250u);
}

TEST_F(CoreMemPathTest, StoreMissWriteAllocates)
{
    storeNow(0x20000, 0x1122334455667788ull);
    EXPECT_EQ(backend.reads, 1u); // fill for ownership
    // The line stays resident: a load hits L1.
    EXPECT_EQ(loadLatency(0x20000), 4 * 250u);
    EXPECT_EQ(backend.reads, 1u);
}

TEST_F(CoreMemPathTest, StoreUpdatesLiveView)
{
    storeNow(0x20008, 42);
    EXPECT_EQ(live.read(0x20000)[8], 42);
}

TEST_F(CoreMemPathTest, StoreHitIsFast)
{
    storeNow(0x20000, 1);
    Tick start = eq.curTick();
    Tick done = 0;
    std::uint64_t v = 2;
    path.store(0x20000, 8, reinterpret_cast<std::uint8_t *>(&v), false,
               [&]() { done = eq.curTick(); });
    eq.run();
    EXPECT_EQ(done - start, 4 * 250u);
    EXPECT_EQ(backend.reads, 1u);
}

TEST_F(CoreMemPathTest, ClwbCleanLineCompletesWithoutWrite)
{
    loadLatency(0x10000);
    bool done = false;
    path.clwb(0x10000, [&]() { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(backend.writes.empty());
}

TEST_F(CoreMemPathTest, ClwbDirtyLineWritesNewestData)
{
    storeNow(0x20000, 7);
    bool done = false;
    path.clwb(0x20000, [&]() { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(backend.writes.size(), 1u);
    EXPECT_EQ(backend.writes[0].addr, 0x20000u);
    std::uint64_t v;
    std::memcpy(&v, backend.writes[0].data.data(), 8);
    EXPECT_EQ(v, 7u);
    EXPECT_FALSE(backend.writes[0].counterAtomic);
}

TEST_F(CoreMemPathTest, ClwbWritesBackTheLineAsItLeavesL2)
{
    // A store that lands after the clwb's L1 step and before its L2
    // step is part of the line the clwb writes back: the payload is
    // read from the live view as the line leaves L2.
    storeNow(0x20000, 7);
    std::uint64_t v = 8;
    path.clwb(0x20000, []() {});
    path.store(0x20000, sizeof(v), reinterpret_cast<std::uint8_t *>(&v),
               false, []() {});
    eq.run();
    ASSERT_EQ(backend.writes.size(), 1u);
    std::memcpy(&v, backend.writes[0].data.data(), 8);
    EXPECT_EQ(v, 8u);
}

TEST_F(CoreMemPathTest, ClwbRetainsLineReadable)
{
    storeNow(0x20000, 7);
    path.clwb(0x20000, []() {});
    eq.run();
    // Line still present: a load hits without a memory read.
    unsigned reads_before = backend.reads;
    loadLatency(0x20000);
    EXPECT_EQ(backend.reads, reads_before);
}

TEST_F(CoreMemPathTest, SecondClwbWithoutNewStoreIsFree)
{
    storeNow(0x20000, 7);
    path.clwb(0x20000, []() {});
    eq.run();
    path.clwb(0x20000, []() {});
    eq.run();
    EXPECT_EQ(backend.writes.size(), 1u);
}

TEST_F(CoreMemPathTest, CounterAtomicAnnotationTravelsToWriteback)
{
    storeNow(0x20000, 7, /*ca=*/true);
    path.clwb(0x20000, []() {});
    eq.run();
    ASSERT_EQ(backend.writes.size(), 1u);
    EXPECT_TRUE(backend.writes[0].counterAtomic);

    // The annotation is consumed by the writeback: a later plain store
    // plus clwb is not counter-atomic.
    storeNow(0x20000, 8, /*ca=*/false);
    path.clwb(0x20000, []() {});
    eq.run();
    ASSERT_EQ(backend.writes.size(), 2u);
    EXPECT_FALSE(backend.writes[1].counterAtomic);
}

TEST_F(CoreMemPathTest, CtrwbForwardsCounterLine)
{
    bool done = false;
    path.ctrwb(0x12345, [&]() { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(backend.ctrwbs.size(), 1u);
    EXPECT_EQ(backend.ctrwbs[0], lineAlign(0x12345));
}

TEST_F(CoreMemPathTest, DirtyEvictionWritesBack)
{
    // Dirty more lines than the hierarchy can hold: every line the
    // L2 cannot keep is written back, carrying the value stored to it.
    const unsigned lines = 200; // > 64 L2 lines
    for (unsigned i = 0; i < lines; ++i)
        storeNow(0x40000 + i * lineBytes, i + 1);
    ASSERT_EQ(backend.writes.size(),
              lines - smallConfig().l2Bytes / lineBytes);
    for (const WriteReq &w : backend.writes) {
        std::uint64_t v;
        std::memcpy(&v, w.data.data(), 8);
        EXPECT_EQ(v, (w.addr - 0x40000) / lineBytes + 1)
            << "line " << std::hex << w.addr;
    }
}

TEST_F(CoreMemPathTest, BackpressureRetriesInOrder)
{
    backend.refuseWrites = true;
    storeNow(0x20000, 1);
    storeNow(0x20040, 2);
    bool first_done = false, second_done = false;
    path.clwb(0x20000, [&]() { first_done = true; });
    path.clwb(0x20040, [&]() { second_done = true; });
    eq.run();
    EXPECT_FALSE(first_done);
    EXPECT_FALSE(second_done);
    EXPECT_GT(backend.refusals, 0u);

    backend.refuseWrites = false;
    backend.fireRetries();
    eq.run();
    EXPECT_TRUE(first_done);
    EXPECT_TRUE(second_done);
    ASSERT_EQ(backend.writes.size(), 2u);
    // FIFO: the first clwb's line lands first.
    EXPECT_EQ(backend.writes[0].addr, 0x20000u);
    EXPECT_EQ(backend.writes[1].addr, 0x20040u);
}

TEST_F(CoreMemPathTest, DropAllLosesDirtyData)
{
    storeNow(0x20000, 1);
    path.dropAll();
    unsigned reads_before = backend.reads;
    loadLatency(0x20000);
    EXPECT_EQ(backend.reads, reads_before + 1); // had to re-fetch
    EXPECT_TRUE(backend.writes.empty());        // nothing written back
}

TEST_F(CoreMemPathTest, StatsCountHitsAndMisses)
{
    stats::StatRegistry reg;
    CoreMemPath p2(eq, ClockDomain(250), backend, live, smallConfig(), 3,
                   &reg);
    bool done = false;
    p2.load(0x90000, [&]() { done = true; });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(reg.lookup("core3.mem.l1_misses"), 1.0);
    EXPECT_EQ(reg.lookup("core3.mem.l2_misses"), 1.0);
    p2.load(0x90000, []() {});
    eq.run();
    EXPECT_EQ(reg.lookup("core3.mem.l1_hits"), 1.0);
}

} // anonymous namespace
} // namespace cnvm
