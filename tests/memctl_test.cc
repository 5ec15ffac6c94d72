/**
 * @file
 * Unit tests for the memory controller: per-design read paths, write
 * acceptance and coalescing, the counter-atomic pairing protocol, the
 * counter_cache_writeback() primitive, ADR crash draining, and the
 * decryptability of the persisted image afterwards.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "memctl/mem_controller.hh"
#include "sim/eventq.hh"

namespace cnvm
{
namespace
{

LineData
lineOf(std::uint8_t v)
{
    LineData d;
    d.fill(v);
    return d;
}

class MemCtlTest : public ::testing::Test
{
  protected:
    void
    build(DesignPoint design)
    {
        MemCtlConfig cfg;
        cfg.design = design;
        nvm = std::make_unique<NvmDevice>(NvmTiming::pcm(), nullptr);
        ctl = std::make_unique<MemController>(eq, *nvm, cfg, nullptr);
    }

    /** Issues a read and returns its latency. */
    Tick
    readLatency(Addr addr)
    {
        Tick start = eq.curTick();
        Tick done = 0;
        ctl->issueRead(addr, [&]() { done = eq.curTick(); });
        eq.run();
        return done - start;
    }

    /** Issues a write, runs to quiescence, returns acceptance tick. */
    Tick
    writeAndDrain(Addr addr, const LineData &data, bool ca = false)
    {
        Tick accepted_at = 0;
        WriteReq req;
        req.addr = addr;
        req.data = data;
        req.counterAtomic = ca;
        req.accepted = [&]() { accepted_at = eq.curTick(); };
        EXPECT_TRUE(ctl->tryWrite(req));
        eq.run();
        return accepted_at;
    }

    /** Decrypts the persisted image for a line with the stored counter. */
    LineData
    recoverLine(Addr addr)
    {
        const LineData *cipher = image().persistedLine(addr);
        if (ctl->design() == DesignPoint::NoEncryption)
            return cipher != nullptr ? *cipher : LineData{};
        LineData bytes = cipher != nullptr
            ? *cipher
            : ctl->engine().encrypt(addr, 0, LineData{});
        std::uint64_t counter =
            image().persistedCounters(ctl->counterLineAddr(addr))
                [ctl->counterSlot(addr)];
        return ctl->engine().decrypt(addr, counter, bytes);
    }

    /** The device's persisted image. */
    const PersistImage &image() const { return nvm->persistedState(); }

    EventQueue eq;
    std::unique_ptr<NvmDevice> nvm;
    std::unique_ptr<MemController> ctl;
};

// --- address-space helpers ----------------------------------------------

TEST_F(MemCtlTest, CounterLineMapping)
{
    build(DesignPoint::SCA);
    Addr base = ctl->config().counterRegionBase;
    EXPECT_EQ(ctl->counterLineAddr(0x0), base);
    EXPECT_EQ(ctl->counterLineAddr(0x1c0), base); // line 7, same group
    EXPECT_EQ(ctl->counterLineAddr(0x200), base + 64); // line 8
    EXPECT_EQ(ctl->counterSlot(0x0), 0u);
    EXPECT_EQ(ctl->counterSlot(0x1c0), 7u);
    EXPECT_EQ(ctl->counterSlot(0x200), 0u);
}

// --- read path latencies (paper Figures 2 and 6) -------------------------

TEST_F(MemCtlTest, NoEncryptionReadIsRawDeviceLatency)
{
    build(DesignPoint::NoEncryption);
    EXPECT_EQ(readLatency(0x40000), nsToTicks(70.5));
}

TEST_F(MemCtlTest, ColocatedSerializesDecryption)
{
    // Figure 6a: read + 40 ns decryption, every time.
    build(DesignPoint::Colocated);
    EXPECT_EQ(readLatency(0x40000), nsToTicks(70.5 + 40));
    EXPECT_EQ(readLatency(0x80000), nsToTicks(70.5 + 40));
}

TEST_F(MemCtlTest, ColocatedCCOverlapsOnHit)
{
    // Figure 6b: first access misses the counter cache (serialized),
    // the next hit overlaps OTP generation with the read.
    build(DesignPoint::ColocatedCC);
    EXPECT_EQ(readLatency(0x40000), nsToTicks(70.5 + 40));
    EXPECT_EQ(readLatency(0x40040), nsToTicks(70.5)); // same ctr line
}

TEST_F(MemCtlTest, SeparateCounterMissFetchesCounterLine)
{
    // Section 5.2.1: a counter miss stalls and fetches the counter
    // line from NVMM; the next access to the same group hits.
    build(DesignPoint::SCA);
    Tick cold = readLatency(0x40000);
    EXPECT_GT(cold, nsToTicks(70.5 + 40)); // counter fetch serialized
    EXPECT_EQ(readLatency(0x40040), nsToTicks(70.5)); // warm hit
}

TEST_F(MemCtlTest, WarmCounterLineAvoidsColdMiss)
{
    build(DesignPoint::SCA);
    ctl->warmCounterLine(0x40000);
    EXPECT_EQ(readLatency(0x40000), nsToTicks(70.5));
}

TEST_F(MemCtlTest, ReadForwardsFromWriteQueue)
{
    build(DesignPoint::SCA);
    WriteReq req;
    req.addr = 0x40000;
    req.data = lineOf(1);
    ASSERT_TRUE(ctl->tryWrite(req));
    // While the write sits in the pipeline/queue, a read to the same
    // line is served by forwarding, far faster than the device.
    scheduleAfter(eq, ctl->config().encLatency, [&]() {
        Tick start = eq.curTick();
        ctl->issueRead(0x40000, [&, start]() {
            EXPECT_EQ(eq.curTick() - start, ctl->config().forwardLatency);
        });
    });
    eq.run();
    EXPECT_EQ(ctl->readForwards.value(), 1.0);
}

TEST_F(MemCtlTest, ReadForwardsFromInPipelineWrite)
{
    // Regression: forwarding used to consult only the data write
    // queue, so a read racing a just-accepted write through the
    // 40 ns encryption pipeline went to the device for stale data.
    build(DesignPoint::SCA);
    WriteReq req;
    req.addr = 0x40000;
    req.data = lineOf(1);
    ASSERT_TRUE(ctl->tryWrite(req));
    // Same tick: the write is in the pipeline, not yet in any queue.
    Tick start = eq.curTick();
    Tick done = 0;
    ctl->issueRead(0x40000, [&]() { done = eq.curTick(); });
    eq.run();
    EXPECT_EQ(done - start, ctl->config().forwardLatency);
    EXPECT_EQ(ctl->readForwards.value(), 1.0);
    // The write still lands and drains normally afterwards.
    EXPECT_TRUE(ctl->writesIdle());
}

// --- write path -----------------------------------------------------------

TEST_F(MemCtlTest, AcceptanceWaitsForEncryptionPipeline)
{
    build(DesignPoint::SCA);
    Tick accepted = writeAndDrain(0x40000, lineOf(1));
    EXPECT_EQ(accepted, ctl->config().encLatency);
}

TEST_F(MemCtlTest, NoEncryptionAcceptanceIsFast)
{
    build(DesignPoint::NoEncryption);
    Tick accepted = writeAndDrain(0x40000, lineOf(1));
    EXPECT_EQ(accepted, ctl->config().acceptLatency);
}

TEST_F(MemCtlTest, DrainedWriteReachesImage)
{
    // SCA is excluded on purpose: its plain writes defer the counter
    // to the counter cache, so the persisted image alone is not
    // decryptable until a counter_cache_writeback() — see
    // CtrWritebackMakesDeferredWriteDurable.
    for (DesignPoint d : {DesignPoint::NoEncryption, DesignPoint::Ideal,
                          DesignPoint::Colocated, DesignPoint::ColocatedCC,
                          DesignPoint::FCA}) {
        build(d);
        writeAndDrain(0x40000, lineOf(0x3c));
        EXPECT_TRUE(ctl->writesIdle()) << designName(d);
        EXPECT_EQ(recoverLine(0x40000), lineOf(0x3c)) << designName(d);
    }
}

TEST_F(MemCtlTest, EncryptedImageIsNotPlaintext)
{
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(0x3c));
    ASSERT_NE(image().persistedLine(0x40000), nullptr);
    EXPECT_NE(*image().persistedLine(0x40000), lineOf(0x3c));
}

TEST_F(MemCtlTest, WriteCombiningCoalesces)
{
    // FCA persists counters with every write, so the coalesced result
    // is directly decryptable from the image.
    build(DesignPoint::FCA);
    WriteReq req;
    req.addr = 0x40000;
    req.data = lineOf(1);
    ASSERT_TRUE(ctl->tryWrite(req));
    req.data = lineOf(2);
    ASSERT_TRUE(ctl->tryWrite(req));
    eq.run();
    EXPECT_GE(ctl->dataCoalesces.value(), 1.0);
    EXPECT_EQ(recoverLine(0x40000), lineOf(2)); // newest wins
}

TEST_F(MemCtlTest, CounterMonotonicallyIncreasesAcrossWrites)
{
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(1));
    CounterLine after_first =
        image().persistedCounters(ctl->counterLineAddr(0x40000));
    writeAndDrain(0x40000, lineOf(2), /*ca=*/true); // pair persists ctr
    eq.run();
    CounterLine after_second =
        image().persistedCounters(ctl->counterLineAddr(0x40000));
    EXPECT_GT(after_second[0], after_first[0]);
}

// --- counter-atomicity (paper sections 3 and 5.2.2) -----------------------

TEST_F(MemCtlTest, UnsafeLosesDeferredCounterAtCrash)
{
    // The Figure 3/4 failure: data drains, the counter stays dirty in
    // the (volatile) counter cache, the crash loses it, and the line
    // no longer decrypts.
    build(DesignPoint::Unsafe);
    writeAndDrain(0x40000, lineOf(0x7e), /*ca=*/true); // annotation ignored
    ctl->crash();
    EXPECT_NE(recoverLine(0x40000), lineOf(0x7e));
}

TEST_F(MemCtlTest, ScaCounterAtomicWriteSurvivesCrash)
{
    // Same scenario, SCA: the CounterAtomic annotation pairs the data
    // and counter writes, so the crash preserves both.
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(0x7e), /*ca=*/true);
    ctl->crash();
    EXPECT_EQ(recoverLine(0x40000), lineOf(0x7e));
}

TEST_F(MemCtlTest, ScaNonAtomicWriteIsTornWithoutWriteback)
{
    // A non-annotated SCA write defers its counter: crash before any
    // counter_cache_writeback() and the line is torn (by design: the
    // recovery path rolls such lines back from the undo log).
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(0x11), /*ca=*/false);
    ctl->crash();
    EXPECT_NE(recoverLine(0x40000), lineOf(0x11));
}

TEST_F(MemCtlTest, CtrWritebackMakesDeferredWriteDurable)
{
    // The paper's counter_cache_writeback() primitive: after it is
    // accepted, the deferred counter is in the ADR domain and the
    // earlier plain write survives a crash.
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(0x11), /*ca=*/false);
    bool accepted = false;
    ASSERT_TRUE(ctl->tryCtrWriteback(0x40000, [&]() { accepted = true; }));
    eq.run();
    EXPECT_TRUE(accepted);
    ctl->crash();
    EXPECT_EQ(recoverLine(0x40000), lineOf(0x11));
}

TEST_F(MemCtlTest, CtrWritebackIsNoopWhenClean)
{
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(1), /*ca=*/true); // written through
    double noops_before = ctl->ctrwbNoops.value();
    ASSERT_TRUE(ctl->tryCtrWriteback(0x40000, nullptr));
    eq.run();
    EXPECT_EQ(ctl->ctrwbNoops.value(), noops_before + 1);
}

TEST_F(MemCtlTest, FcaTreatsEveryWriteAsAtomic)
{
    build(DesignPoint::FCA);
    writeAndDrain(0x40000, lineOf(0x22), /*ca=*/false);
    ctl->crash();
    EXPECT_EQ(recoverLine(0x40000), lineOf(0x22));
    EXPECT_GE(ctl->atomicPairs.value(), 1.0);
}

TEST_F(MemCtlTest, FcaCtrWritebackIsNoop)
{
    build(DesignPoint::FCA);
    double noops = ctl->ctrwbNoops.value();
    ASSERT_TRUE(ctl->tryCtrWriteback(0x40000, nullptr));
    eq.run();
    EXPECT_EQ(ctl->ctrwbNoops.value(), noops + 1);
}

TEST_F(MemCtlTest, IdealCounterPersistenceIsFree)
{
    build(DesignPoint::Ideal);
    writeAndDrain(0x40000, lineOf(0x33), /*ca=*/false);
    ctl->crash();
    EXPECT_EQ(recoverLine(0x40000), lineOf(0x33));
    EXPECT_EQ(ctl->ctrInserts.value(), 0.0); // no counter write traffic
}

TEST_F(MemCtlTest, ColocatedAlwaysAtomic)
{
    for (DesignPoint d : {DesignPoint::Colocated,
                          DesignPoint::ColocatedCC}) {
        build(d);
        writeAndDrain(0x40000, lineOf(0x44), /*ca=*/false);
        ctl->crash();
        EXPECT_EQ(recoverLine(0x40000), lineOf(0x44)) << designName(d);
        EXPECT_EQ(ctl->ctrInserts.value(), 0.0) << designName(d);
    }
}

TEST_F(MemCtlTest, CrashBeforeLandingLosesWriteEntirely)
{
    // A write still in the encryption pipeline at the failure is not
    // in the ADR domain: neither data nor counter may persist.
    build(DesignPoint::SCA);
    WriteReq req;
    req.addr = 0x40000;
    req.data = lineOf(0x55);
    req.counterAtomic = true;
    ASSERT_TRUE(ctl->tryWrite(req));
    ctl->crash(); // before the encLatency landing
    eq.run();
    EXPECT_EQ(image().persistedLine(0x40000), nullptr);
    EXPECT_EQ(recoverLine(0x40000), LineData{}); // still "never written"
}

TEST_F(MemCtlTest, CrashDrainsAcceptedButUnissuedEntries)
{
    // ADR: anything accepted into the queues persists even if the
    // device never got to it before the failure.
    build(DesignPoint::SCA);
    bool accepted = false;
    WriteReq req;
    req.addr = 0x40000;
    req.data = lineOf(0x66);
    req.counterAtomic = true;
    req.accepted = [&]() { accepted = true; };
    ASSERT_TRUE(ctl->tryWrite(req));
    // Run only until acceptance (encryption pipeline plus the
    // ready-bit pairing handshake), not until the drain completes.
    eq.run(ctl->config().encLatency + ctl->config().pairLatency);
    ASSERT_TRUE(accepted);
    ctl->crash();
    EXPECT_EQ(recoverLine(0x40000), lineOf(0x66));
}

TEST_F(MemCtlTest, CrashCountsEntriesOutsideTheAdrCutAsDropped)
{
    // Six counter-atomic writes on six counter lines sit accepted in
    // both queues; two more are still in the encryption pipeline. An
    // energy budget 8 entries short keeps the 4 oldest data entries
    // and no counter entry. Pipeline writes never reached a queue, so
    // only queue entries outside the cut count as dropped.
    build(DesignPoint::SCA);
    for (unsigned i = 0; i < 6; ++i) {
        WriteReq req;
        req.addr = 0x40000 + i * 0x1000;
        req.data = lineOf(static_cast<std::uint8_t>(i + 1));
        req.counterAtomic = true;
        ASSERT_TRUE(ctl->tryWrite(req));
    }
    eq.run(ctl->config().encLatency + ctl->config().pairLatency);
    for (unsigned i = 0; i < 2; ++i) {
        WriteReq req;
        req.addr = 0x80000 + i * 0x1000;
        req.data = lineOf(0x70);
        ASSERT_TRUE(ctl->tryWrite(req));
    }
    ASSERT_EQ(ctl->dataQueueOccupancy(), 6u);
    ASSERT_EQ(ctl->ctrQueueOccupancy(), 6u);
    ASSERT_EQ(ctl->pipelineDepth(), 2u);

    ctl->crash(8);
    EXPECT_EQ(ctl->crashDroppedData.value(), 2.0);
    EXPECT_EQ(ctl->crashDroppedCtr.value(), 6.0);
    // The kept data landed without its dropped counter.
    EXPECT_NE(image().persistedLine(0x40000 + 3 * 0x1000), nullptr);
    EXPECT_EQ(image().persistedCounters(ctl->counterLineAddr(0x40000))
                  [ctl->counterSlot(0x40000)],
              0u);
    EXPECT_EQ(image().persistedLine(0x40000 + 4 * 0x1000), nullptr);
    EXPECT_EQ(image().persistedLine(0x80000), nullptr);
}

TEST_F(MemCtlTest, InitLineInstallsDecryptableState)
{
    for (DesignPoint d : {DesignPoint::NoEncryption, DesignPoint::SCA,
                          DesignPoint::FCA, DesignPoint::Colocated}) {
        build(d);
        ctl->initLine(0x40000, lineOf(0x5a));
        EXPECT_EQ(recoverLine(0x40000), lineOf(0x5a)) << designName(d);
    }
}

TEST_F(MemCtlTest, PerWorkWriteTrafficAccounting)
{
    // SCA: one plain write is one 64 B data write; its deferred
    // counter adds 8 B when flushed.
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(1));
    EXPECT_EQ(nvm->bytesWritten(), 64u);
    ASSERT_TRUE(ctl->tryCtrWriteback(0x40000, nullptr));
    eq.run();
    EXPECT_EQ(nvm->bytesWritten(), 64u + 8u);
}

TEST_F(MemCtlTest, FcaCounterTrafficIsLineGranular)
{
    // Section 4.1: FCA updates the counter at cache-line granularity.
    build(DesignPoint::FCA);
    writeAndDrain(0x40000, lineOf(1));
    EXPECT_EQ(nvm->bytesWritten(), 64u + 64u);
}

TEST_F(MemCtlTest, ColocatedBusCarries72Bytes)
{
    build(DesignPoint::Colocated);
    writeAndDrain(0x40000, lineOf(1));
    EXPECT_EQ(nvm->bytesWritten(), 72u);
}

// --- post-crash epoch hygiene (regression tests) --------------------------

TEST_F(MemCtlTest, CrashWithReadsInFlightDoesNotUnderflow)
{
    // Read completions scheduled before the failure must die with it:
    // un-guarded, they would decrement the freshly-zeroed outstanding
    // count (underflow) and invoke dead callbacks.
    build(DesignPoint::SCA);
    unsigned completions = 0;
    for (unsigned i = 0; i < 4; ++i)
        ctl->issueRead(0x40000 + i * lineBytes, [&]() { ++completions; });
    EXPECT_EQ(ctl->outstandingReadCount(), 4u);
    ctl->crash();
    EXPECT_EQ(ctl->outstandingReadCount(), 0u);
    eq.run(); // pre-crash completion events fire as epoch-guarded no-ops
    EXPECT_EQ(completions, 0u);
    EXPECT_EQ(ctl->outstandingReadCount(), 0u);

    // The post-crash controller still serves reads normally.
    bool done = false;
    ctl->issueRead(0x40000, [&]() { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(ctl->outstandingReadCount(), 0u);
}

TEST_F(MemCtlTest, CrashResetsDrainKickStateAndWritesFlowAgain)
{
    // Crash between acceptance and drain: the pending kick and drain
    // completion events are epoch-guarded no-ops, so crash() itself
    // must clear kickScheduled/drainKickPending — left set, they would
    // wedge the post-crash drain engine forever.
    build(DesignPoint::SCA);
    WriteReq req;
    req.addr = 0x40000;
    req.data = lineOf(0x77);
    req.counterAtomic = true;
    ASSERT_TRUE(ctl->tryWrite(req));
    eq.run(ctl->config().encLatency + ctl->config().pairLatency);
    ctl->crash();
    eq.run();
    EXPECT_TRUE(ctl->writesIdle());

    writeAndDrain(0x80000, lineOf(0x78), /*ca=*/true);
    EXPECT_TRUE(ctl->writesIdle());
    EXPECT_EQ(recoverLine(0x80000), lineOf(0x78));
}

TEST_F(MemCtlTest, CrashRebuildsCounterStateFromPersistedStore)
{
    // Regression: crash() used to carry the global counter across the
    // failure — volatile encryption-engine state surviving a power
    // loss. The controller now rebuilds it from the persisted counter
    // region (what recovery's counter scan knows), so post-crash
    // writes stay consistent with the surviving image.
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(0x11), /*ca=*/true); // counter 1
    writeAndDrain(0x80000, lineOf(0x22), /*ca=*/true); // counter 2
    std::uint64_t before =
        image().persistedCipherCounter(0x40000);
    EXPECT_EQ(before, 1u);
    ctl->crash();

    // A post-crash rewrite must draw a counter strictly above every
    // persisted value — never re-pairing a persisted counter with new
    // ciphertext — and the oracle's consistency condition must hold:
    // persisted cipher counter == persisted counter-store slot.
    writeAndDrain(0x40000, lineOf(0x33), /*ca=*/true);
    std::uint64_t cipher_ctr = image().persistedCipherCounter(0x40000);
    std::uint64_t stored_ctr =
        image().persistedCounters(ctl->counterLineAddr(0x40000))
            [ctl->counterSlot(0x40000)];
    EXPECT_EQ(cipher_ctr, stored_ctr);
    EXPECT_EQ(cipher_ctr, 3u); // rebuilt global = 2, next write = 3
    EXPECT_EQ(recoverLine(0x40000), lineOf(0x33));
    // The untouched line still decrypts with its pre-crash counter.
    EXPECT_EQ(recoverLine(0x80000), lineOf(0x22));
}

TEST_F(MemCtlTest, CrashWithUnpersistedCountersRestartsLow)
{
    // An SCA plain write whose counter never left the (volatile)
    // counter cache: the crash loses the counter, and the rebuilt
    // global counter must reflect only what persisted — the engine
    // cannot "remember" values the failure destroyed.
    build(DesignPoint::SCA);
    writeAndDrain(0x40000, lineOf(0x11), /*ca=*/false); // ctr 1, deferred
    ctl->crash();
    // Nothing reached the counter store, so the rebuild starts empty
    // and the next write draws counter 1 again; the oracle condition
    // holds for the new pairing.
    writeAndDrain(0x80000, lineOf(0x22), /*ca=*/true);
    EXPECT_EQ(image().persistedCipherCounter(0x80000), 1u);
    EXPECT_EQ(recoverLine(0x80000), lineOf(0x22));
    // The torn pre-crash line stays torn (Figure 4 semantics).
    EXPECT_NE(recoverLine(0x40000), lineOf(0x11));
}

TEST_F(MemCtlTest, SemanticEventsFireAlongTheWritePath)
{
    build(DesignPoint::SCA);
    std::array<unsigned, numCtlEvents> counts{};
    ctl->setEventHook([&](CtlEvent ev) {
        ++counts[static_cast<unsigned>(ev)];
    });
    writeAndDrain(0x40000, lineOf(1), /*ca=*/true);
    EXPECT_GE(counts[static_cast<unsigned>(CtlEvent::PipelineEnter)], 1u);
    EXPECT_GE(counts[static_cast<unsigned>(CtlEvent::PairAction)], 1u);
    EXPECT_GE(counts[static_cast<unsigned>(CtlEvent::DataDrain)], 1u);
    EXPECT_GE(counts[static_cast<unsigned>(CtlEvent::CtrDrain)], 1u);
}

TEST_F(MemCtlTest, QueueOccupancyDrainsToZero)
{
    build(DesignPoint::FCA);
    for (unsigned i = 0; i < 8; ++i) {
        WriteReq req;
        req.addr = 0x40000 + i * lineBytes;
        req.data = lineOf(static_cast<std::uint8_t>(i));
        ASSERT_TRUE(ctl->tryWrite(req));
    }
    EXPECT_FALSE(ctl->writesIdle());
    eq.run();
    EXPECT_TRUE(ctl->writesIdle());
    EXPECT_EQ(ctl->dataQueueOccupancy(), 0u);
    EXPECT_EQ(ctl->ctrQueueOccupancy(), 0u);
}

} // anonymous namespace
} // namespace cnvm
