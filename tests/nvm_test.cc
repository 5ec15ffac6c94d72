/**
 * @file
 * Unit tests for the NVM device: PCM timing (latencies, bank conflicts,
 * write pausing, bus turnaround) and the persisted image, copies of it
 * included; and for the live view.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/live_view.hh"
#include "nvm/nvm_device.hh"

namespace cnvm
{
namespace
{

NvmTiming
simpleTiming()
{
    NvmTiming t = NvmTiming::pcm();
    return t;
}

LineData
lineOf(std::uint8_t v)
{
    LineData d;
    d.fill(v);
    return d;
}

TEST(NvmTiming, Defaults)
{
    NvmTiming t = NvmTiming::pcm();
    EXPECT_EQ(t.tRCD, nsToTicks(48));
    EXPECT_EQ(t.tCL, nsToTicks(15));
    EXPECT_EQ(t.tCWD, nsToTicks(13));
    EXPECT_EQ(t.tWR, nsToTicks(300));
    EXPECT_EQ(t.tBurst, nsToTicks(7.5));
    EXPECT_GT(t.numBanks, 0u);
}

TEST(NvmTiming, Scaling)
{
    NvmTiming t = NvmTiming::pcm().scaled(2.0, 0.5);
    EXPECT_EQ(t.tRCD, nsToTicks(96));
    EXPECT_EQ(t.tCL, nsToTicks(30));
    EXPECT_EQ(t.tWR, nsToTicks(150));
    EXPECT_EQ(t.tCWD, nsToTicks(6.5));
    // Burst and turnaround are interface properties, not scaled.
    EXPECT_EQ(t.tBurst, nsToTicks(7.5));
}

TEST(NvmDevice, IdleReadLatency)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    Tick done = nvm.scheduleRead(0x0, 0);
    // tRCD + tCL + tBurst = 48 + 15 + 7.5 ns.
    EXPECT_EQ(done, nsToTicks(70.5));
}

TEST(NvmDevice, IdleWriteDrainPoint)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    Tick done = nvm.scheduleWrite(0x0, 0, lineBytes);
    // tCWD + tBurst = 13 + 7.5 ns; recovery happens after.
    EXPECT_EQ(done, nsToTicks(20.5));
}

TEST(NvmDevice, WriteRecoveryBlocksSameBankWrite)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    Tick first = nvm.scheduleWrite(0x0, 0, lineBytes);
    // Same line, same bank: must wait for the full tWR recovery.
    Tick second = nvm.scheduleWrite(0x0, first, lineBytes);
    EXPECT_GE(second, first + nvm.timing().tWR);
}

TEST(NvmDevice, DifferentBanksOverlap)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    Tick w0 = nvm.scheduleWrite(0x0, 0, lineBytes);
    Tick w1 = nvm.scheduleWrite(0x40, 0, lineBytes); // next bank
    // The second write's burst starts right after the first's on the
    // shared bus; no 300 ns recovery wait.
    EXPECT_LT(w1, w0 + nvm.timing().tWR);
}

TEST(NvmDevice, PartialWriteRecoveryScales)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    Tick burst_end = nvm.scheduleWrite(0x0, 0, counterBytes); // 8 B
    // Next same-bank access: recovery is tWR/8, not full tWR.
    Tick next = nvm.scheduleWrite(0x0, burst_end, lineBytes);
    EXPECT_LT(next, burst_end + nvm.timing().tWR / 4);
    EXPECT_GE(next, burst_end + nvm.timing().tWR / 8);
}

TEST(NvmDevice, WritePauseLetsReadPreempt)
{
    NvmTiming t = simpleTiming();
    t.writePause = true;
    NvmDevice nvm(t, nullptr);
    Tick wdone = nvm.scheduleWrite(0x0, 0, lineBytes);
    // A read to the same bank right after the burst: with pausing it
    // completes long before the 300 ns recovery would allow.
    Tick rdone = nvm.scheduleRead(0x0, wdone);
    EXPECT_LT(rdone, wdone + nsToTicks(100));
}

TEST(NvmDevice, NoWritePauseSerializesRead)
{
    NvmTiming t = simpleTiming();
    t.writePause = false;
    NvmDevice nvm(t, nullptr);
    Tick wdone = nvm.scheduleWrite(0x0, 0, lineBytes);
    Tick rdone = nvm.scheduleRead(0x0, wdone);
    EXPECT_GE(rdone, wdone + t.tWR);
}

TEST(NvmDevice, PausedRecoveryResumesAfterRead)
{
    NvmTiming t = simpleTiming();
    t.writePause = true;
    NvmDevice nvm(t, nullptr);
    Tick wdone = nvm.scheduleWrite(0x0, 0, lineBytes);
    Tick rdone = nvm.scheduleRead(0x0, wdone);
    // The interrupted programming still owes its time: another
    // same-bank access must wait out the extended recovery.
    Tick w2 = nvm.scheduleWrite(0x0, rdone, lineBytes);
    EXPECT_GE(w2, wdone + t.tWR);
}

TEST(NvmDevice, SecondPausingReadPaysReentryDelay)
{
    // Regression: the paused path used to leave pausableFrom at its
    // pre-read value, so a second read issued while the same write
    // recovery was still owed could pause it again "for free" and
    // complete a burst after the first (hiding the array access
    // entirely). Pausing re-entry must be re-armed from the end of the
    // preempting read.
    NvmTiming t = simpleTiming();
    t.writePause = true;
    NvmDevice nvm(t, nullptr);
    Tick wdone = nvm.scheduleWrite(0x0, 0, lineBytes);
    Tick r1 = nvm.scheduleRead(0x0, wdone);
    Tick r2 = nvm.scheduleRead(0x0, wdone);
    // The second read pauses the resumed programming no earlier than
    // tPause after the first read ends, then pays the full array
    // access again.
    EXPECT_GE(r2, r1 + t.tPause + t.tRCD + t.tCL);
}

TEST(NvmDevice, WriteToReadTurnaround)
{
    // With the array latencies zeroed, the read's burst contends with
    // the write burst directly and the bus turnaround is visible.
    NvmTiming fast = simpleTiming();
    fast.tRCD = 0;
    fast.tCL = 0;
    NvmTiming no_turnaround = fast;
    no_turnaround.tWTR = 0;

    NvmDevice with(fast, nullptr), without(no_turnaround, nullptr);
    with.scheduleWrite(0x0, 0, lineBytes);
    without.scheduleWrite(0x0, 0, lineBytes);
    Tick r_with = with.scheduleRead(0x40, 0);
    Tick r_without = without.scheduleRead(0x40, 0);
    EXPECT_EQ(r_with, r_without + fast.tWTR);
}

TEST(NvmDevice, TrafficAccounting)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    nvm.scheduleRead(0x0, 0);
    nvm.scheduleWrite(0x40, 0, lineBytes);
    nvm.scheduleWrite(0x80, 0, 16);
    EXPECT_EQ(nvm.bytesRead(), 64u);
    EXPECT_EQ(nvm.bytesWritten(), 80u);
}

TEST(NvmDevice, BankFreeQueries)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    const unsigned bank = nvm.bankOf(0x0);
    EXPECT_EQ(nvm.bankFreeTick(bank), 0u);
    Tick done = nvm.scheduleWrite(0x0, 0, lineBytes);
    EXPECT_GT(nvm.bankFreeTick(bank), done);
    EXPECT_EQ(nvm.bankFreeTick(bank), done + nvm.timing().tWR);
    EXPECT_EQ(nvm.bankFreeTick(nvm.bankOf(0x40)), 0u);
}

// --- live view and persisted image ---------------------------------------

TEST(LiveView, DefaultsToZero)
{
    LiveView live;
    EXPECT_EQ(live.read(0x1000), LineData{});
}

TEST(LiveView, PartialStores)
{
    LiveView live;
    std::uint8_t bytes[4] = {1, 2, 3, 4};
    live.store(0x1010, 4, bytes);
    LineData line = live.read(0x1000);
    EXPECT_EQ(line[0x10], 1);
    EXPECT_EQ(line[0x13], 4);
    EXPECT_EQ(line[0x14], 0);
}

TEST(LiveView, SharedTableStaysPrivateAfterAWrite)
{
    // A view built from a table shares its pages; a store through the
    // view leaves the table as it was, and a write to the table leaves
    // the view as it was.
    LineTable<LineData> table;
    table[0x1000] = lineOf(1);
    table[0x1040] = lineOf(2);
    LiveView live(table);
    EXPECT_EQ(live.read(0x1000), lineOf(1));
    EXPECT_EQ(live.read(0x1040), lineOf(2));

    std::uint8_t bytes[4] = {9, 9, 9, 9};
    live.store(0x1000, 4, bytes);
    EXPECT_EQ(live.read(0x1000)[0], 9);
    EXPECT_EQ(*table.find(0x1000), lineOf(1));

    table[0x1040] = lineOf(3);
    table[0x1080] = lineOf(4);
    EXPECT_EQ(live.read(0x1040), lineOf(2));
    EXPECT_EQ(live.read(0x1080), LineData{});
}

TEST(NvmDevice, PersistedImageHoldsOnlyDrainedLines)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    PersistImage &img = nvm.persistedState();
    EXPECT_EQ(img.persistedLine(0x1000), nullptr);
    img.drainData(0x1000, lineOf(7));
    ASSERT_NE(img.persistedLine(0x1000), nullptr);
    EXPECT_EQ(*img.persistedLine(0x1000), lineOf(7));
}

TEST(NvmDevice, CounterStore)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    PersistImage &img = nvm.persistedState();
    CounterLine zeros{};
    EXPECT_EQ(img.persistedCounters(0x2000), zeros);
    CounterLine values{1, 2, 3, 4, 5, 6, 7, 8};
    img.drainCounters(0x2000, values);
    EXPECT_EQ(img.persistedCounters(0x2000), values);
}

TEST(NvmDevice, DrainOverwritesPriorImage)
{
    NvmDevice nvm(simpleTiming(), nullptr);
    PersistImage &img = nvm.persistedState();
    img.drainData(0x0, lineOf(1));
    img.drainData(0x0, lineOf(2));
    EXPECT_EQ(*img.persistedLine(0x0), lineOf(2));
    EXPECT_EQ(img.lineCount(), 1u);
}

constexpr Addr kCtrLine = Addr(1) << 33;

/** Everything an image lets a reader see, flattened for comparison. */
std::vector<std::uint64_t>
stateOf(const PersistImage &img)
{
    std::vector<std::uint64_t> s;
    auto opt = [&s](const std::uint64_t *v) { s.push_back(v ? *v : ~0ull); };
    for (Addr a : img.dataLineAddrs()) {
        const LineData &cipher = *img.persistedLine(a);
        s.push_back(a);
        s.insert(s.end(), cipher.begin(), cipher.end());
        s.push_back(img.persistedCipherCounter(a));
        opt(img.persistedMac(a));
        s.push_back(img.lineFaulted(a));
        s.push_back(img.lineReplayed(a));
    }
    img.forEachCounterLine([&s](Addr a, const CounterLine &values) {
        s.push_back(a);
        s.insert(s.end(), values.begin(), values.end());
    });
    for (Addr a : img.replayableLineAddrs())
        s.push_back(a);
    for (unsigned level = 0; level < 3; ++level)
        for (std::uint64_t index = 0; index < 2; ++index)
            opt(img.persistedTreeNode(level, index));
    opt(img.persistedTreeRoot());
    s.push_back(img.faultedLineCount());
    return s;
}

/** Applies every PersistImage mutator once. */
void
mutateEveryTable(PersistImage &img)
{
    img.drainData(0x0, lineOf(4), 3);
    img.drainMac(0x0, 33);
    img.drainData(0x80, lineOf(4), 3);
    img.drainCounters(kCtrLine, CounterLine{3, 1, 3});
    img.drainTreeNode(0, 0, 55);
    img.drainTreeNode(2, 0, 66);
    img.drainTreeRoot(77);
    img.corruptDataLine(0x80, lineOf(5));
    img.corruptCounterSlot(kCtrLine, 1, 999, 0x40);
    EXPECT_TRUE(img.replayLine(0x0, kCtrLine, 0));
    img.clearFaultGroundTruth();
}

TEST(PersistImage, DrainedLineMacReadsZeroUntilStored)
{
    // The MAC word exists from a line's first drain: it reads 0 until
    // drainMac() stores one, and only a never-drained line has none.
    PersistImage img;
    EXPECT_EQ(img.persistedMac(0x0), nullptr);
    img.drainData(0x0, lineOf(1), 1);
    ASSERT_NE(img.persistedMac(0x0), nullptr);
    EXPECT_EQ(*img.persistedMac(0x0), 0u);
    img.drainMac(0x0, 42);
    EXPECT_EQ(*img.persistedMac(0x0), 42u);

    // A replay restores the stale word, whether or not a MAC was
    // stored over it.
    img.drainCounters(kCtrLine, CounterLine{2});
    img.drainData(0x0, lineOf(2), 2);
    img.drainMac(0x0, 43);
    ASSERT_TRUE(img.replayLine(0x0, kCtrLine, 0));
    EXPECT_EQ(*img.persistedMac(0x0), 42u);

    img.drainData(0x40, lineOf(1), 1);
    img.drainCounters(kCtrLine, CounterLine{2, 2});
    img.drainData(0x40, lineOf(2), 2);
    img.drainMac(0x40, 44);
    ASSERT_TRUE(img.replayLine(0x40, kCtrLine, 1));
    EXPECT_EQ(*img.persistedMac(0x40), 0u);
}

TEST(PersistImage, CopyIsIndependentOfEveryTable)
{
    // Data lines with MACs, a counter line, a stale triple per line, a
    // replayed and a faulted line, and a small tree.
    PersistImage base;
    base.drainCounters(kCtrLine, CounterLine{1, 1});
    base.drainData(0x0, lineOf(1), 1);
    base.drainMac(0x0, 11);
    base.drainData(0x40, lineOf(1), 1);
    base.drainMac(0x40, 21);
    base.drainCounters(kCtrLine, CounterLine{2, 2});
    base.drainData(0x0, lineOf(2), 2);
    base.drainMac(0x0, 12);
    base.drainData(0x40, lineOf(2), 2);
    base.drainMac(0x40, 22);
    ASSERT_TRUE(base.replayLine(0x40, kCtrLine, 1));
    base.corruptDataLine(0x0, lineOf(3));
    base.drainTreeNode(0, 0, 5);
    base.drainTreeNode(1, 0, 6);
    base.drainTreeRoot(7);
    const std::vector<std::uint64_t> base_state = stateOf(base);

    // Every mutator on the copy leaves the source as it was...
    PersistImage copy = base;
    EXPECT_EQ(stateOf(copy), base_state);
    mutateEveryTable(copy);
    EXPECT_NE(stateOf(copy), base_state);
    EXPECT_EQ(stateOf(base), base_state);

    // ...and on the source, leaves a fresh copy as it was.
    PersistImage other = base;
    mutateEveryTable(base);
    EXPECT_EQ(stateOf(base), stateOf(copy));
    EXPECT_EQ(stateOf(other), base_state);
}

} // anonymous namespace
} // namespace cnvm
