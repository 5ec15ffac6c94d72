/**
 * @file
 * Cross-module integration and property tests:
 *
 *  - the recovered (decrypted) image after a clean shutdown equals the
 *    workload shadow, for every design — the functional paths through
 *    cache, encryption, queues and recovery agree end to end;
 *  - a torn-state fuzzer builds random partial-persist states directly
 *    against the NVM API and checks the recovery engine's decisions;
 *  - simulations are deterministic and design-independent functionally
 *    (the same seed produces the same committed data under every
 *    design);
 *  - an 8-core stress run with a tiny counter write queue completes
 *    and stays consistent under backpressure.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/system.hh"
#include "txn/undo_log.hh"

namespace cnvm
{
namespace
{

SystemConfig
smallConfig(DesignPoint design, WorkloadKind kind, unsigned txns = 25)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = kind;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = txns;
    cfg.wl.computePerTxn = 100;
    cfg.wl.setupFill = 0.3;
    return cfg;
}

// ---------------------------------------------------------------------
// Clean-shutdown equivalence: shadow == decrypted image, all designs.
// ---------------------------------------------------------------------

class CleanShutdown
    : public ::testing::TestWithParam<std::pair<DesignPoint, WorkloadKind>>
{};

TEST_P(CleanShutdown, RecoveredImageEqualsShadow)
{
    auto [design, workload] = GetParam();
    System sys(smallConfig(design, workload));
    sys.run();

    // A clean shutdown flushes everything: emulate by writing back the
    // remaining counter-cache state through the paper's primitive,
    // then crash. All committed state must decrypt to the shadow
    // bytes exactly.
    for (Addr group = sys.workload(0).regionBase();
         group < sys.workload(0).regionEnd();
         group += lineBytes * countersPerLine) {
        ASSERT_TRUE(sys.controller().tryCtrWriteback(group, nullptr));
        sys.eventQueue().run();
    }
    sys.eventQueue().run();
    sys.crashChannels();

    RecoveredImage image(sys.nvm().persistedState(), sys.controller());
    const ShadowMem &shadow = sys.workload(0).shadowMem();
    std::size_t mismatches = 0;
    shadow.table().forEach([&](Addr addr, const LineData &expect) {
        if (image.line(addr) != expect)
            ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DesignsXWorkloads, CleanShutdown,
    ::testing::Values(
        std::make_pair(DesignPoint::NoEncryption, WorkloadKind::Queue),
        std::make_pair(DesignPoint::Ideal, WorkloadKind::HashTable),
        std::make_pair(DesignPoint::Colocated, WorkloadKind::BTree),
        std::make_pair(DesignPoint::ColocatedCC, WorkloadKind::RbTree),
        std::make_pair(DesignPoint::FCA, WorkloadKind::ArraySwap),
        std::make_pair(DesignPoint::SCA, WorkloadKind::BTree)),
    [](const auto &info) {
        std::string n = std::string(designName(info.param.first)) + "_"
                      + workloadKindName(info.param.second);
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Functional design-independence: committed data does not depend on
// the timing design, only on the workload seed.
// ---------------------------------------------------------------------

TEST(Integration, CommittedStateIsDesignIndependent)
{
    std::uint64_t reference = 0;
    bool first = true;
    for (DesignPoint d : {DesignPoint::NoEncryption, DesignPoint::SCA,
                          DesignPoint::FCA, DesignPoint::Colocated}) {
        System sys(smallConfig(d, WorkloadKind::RbTree));
        sys.run();
        std::uint64_t digest =
            sys.workload(0).digest(sys.workload(0).shadowMem());
        if (first) {
            reference = digest;
            first = false;
        } else {
            EXPECT_EQ(digest, reference) << designName(d);
        }
    }
}

TEST(Integration, RunsAreReproducibleTickForTick)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA, WorkloadKind::BTree);
    System a(cfg), b(cfg);
    RunResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.endTick, rb.endTick);
    EXPECT_EQ(a.nvmBytesWritten(), b.nvmBytesWritten());
    EXPECT_EQ(a.nvmBytesRead(), b.nvmBytesRead());
}

// ---------------------------------------------------------------------
// Torn-state fuzzer: random partial-persist states, built directly.
// ---------------------------------------------------------------------

class TornStateFuzzer : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(TornStateFuzzer, RecoveryNeverMisjudgesManufacturedStates)
{
    // Start from a cleanly committed system, then corrupt the image in
    // randomized but *typed* ways and check the recovery verdicts:
    //  - regressing a data line's counter (stale counter) must be
    //    caught by structure validation or the digest check;
    //  - a log in the kValid state with a matching checksum must roll
    //    back; with a broken checksum it must not.
    Random rng(GetParam());
    SystemConfig cfg = smallConfig(DesignPoint::SCA,
                                   WorkloadKind::ArraySwap, 10);
    cfg.wl.recordDigests = true;
    System sys(cfg);
    sys.run();
    sys.crashChannels();

    MemController &ctl = sys.controller();
    PersistImage &img = sys.nvm().persistedState();
    Workload &wl = sys.workload(0);

    // Sanity: the untouched state recovers.
    {
        RecoveryEngine engine(img, ctl);
        ASSERT_TRUE(engine.recover(wl).consistent);
    }

    // Corruption 1: regress the persisted counter of a random array
    // line (the Figure 3(b) direction).
    Addr victim = 0;
    {
        // Pick a random persisted line inside the region.
        for (int tries = 0; tries < 1000; ++tries) {
            Addr candidate = lineAlign(
                wl.regionBase()
                + rng.below(wl.regionEnd() - wl.regionBase()));
            if (img.persistedLine(candidate) != nullptr) {
                victim = candidate;
                break;
            }
        }
        ASSERT_NE(victim, 0u);
        Addr ctr_addr = ctl.counterLineAddr(victim);
        CounterLine values = img.persistedCounters(ctr_addr);
        unsigned slot = ctl.counterSlot(victim);
        ASSERT_GT(values[slot], 0u);
        values[slot] -= 1; // stale
        img.drainCounters(ctr_addr, values);

        RecoveryEngine engine(img, ctl);
        RecoveryReport report = engine.recover(wl);
        EXPECT_FALSE(report.consistent)
            << "stale counter on " << std::hex << victim
            << " went undetected";

        values[slot] += 1; // repair
        img.drainCounters(ctr_addr, values);
        ASSERT_TRUE(engine.recover(wl).consistent);
    }

    // Corruption 2: flip random bits in a random *backup* line of the
    // log while the log is invalid — recovery must ignore the log and
    // stay consistent.
    {
        const LogLayout &log = wl.log();
        Addr backup = log.backupAddr(
            static_cast<unsigned>(rng.below(log.maxLines)));
        std::uint64_t counter =
            img.persistedCounters(ctl.counterLineAddr(backup))
                [ctl.counterSlot(backup)];
        const LineData *cipher = img.persistedLine(backup);
        if (cipher != nullptr) {
            LineData garbled = *cipher;
            garbled[rng.below(lineBytes)] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
            img.drainData(backup, garbled);
            (void)counter;
            RecoveryEngine engine(img, ctl);
            EXPECT_TRUE(engine.recover(wl).consistent)
                << "garbage in an inactive log backup must be ignored";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TornStateFuzzer,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------
// Backpressure stress: tiny counter queue, many cores.
// ---------------------------------------------------------------------

TEST(Integration, EightCoreStressWithTinyCounterQueue)
{
    SystemConfig cfg = smallConfig(DesignPoint::FCA,
                                   WorkloadKind::HashTable, 8);
    cfg.numCores = 8;
    cfg.memctl.ctrWqEntries = 2; // brutal backpressure
    cfg.memctl.dataWqEntries = 8;
    System sys(cfg);
    RunResult result = sys.run();
    EXPECT_EQ(result.txnsIssued, 8u * 8u);

    sys.crashChannels();
    std::string why;
    EXPECT_TRUE(sys.recoveredConsistently(&why)) << why;
}

TEST(Integration, ScaStressWithTinyQueuesStaysConsistentUnderCrash)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA,
                                   WorkloadKind::Queue, 12);
    cfg.numCores = 4;
    cfg.memctl.ctrWqEntries = 2;
    cfg.memctl.dataWqEntries = 8;
    cfg.wl.recordDigests = true;

    Tick total = System(cfg).run().endTick;
    for (int i = 1; i <= 5; ++i) {
        System sys(cfg);
        RunResult result = sys.runWithCrashAt(total * i / 6);
        if (!result.crashed)
            continue;
        std::string why;
        ASSERT_TRUE(sys.recoveredConsistently(&why))
            << "point " << i << ": " << why;
    }
}

// ---------------------------------------------------------------------
// Randomized UndoTx property: arbitrary interleavings of reads and
// writes, committed through ops, always leave shadow == merged view.
// ---------------------------------------------------------------------

class UndoTxProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(UndoTxProperty, ShadowMatchesReferenceModel)
{
    Random rng(GetParam());
    ShadowMem shadow;
    LogLayout log{0x10000, 64};
    std::map<Addr, std::uint64_t> model;

    const Addr data_base = 0x100000;
    for (int txn = 0; txn < 50; ++txn) {
        UndoTx tx(shadow, log);
        tx.begin(txn + 1);
        unsigned writes = 1 + static_cast<unsigned>(rng.below(10));
        for (unsigned w = 0; w < writes; ++w) {
            Addr addr = data_base + rng.below(64) * 8;
            if (rng.chancePct(30)) {
                // Read-modify-write through the transaction.
                std::uint64_t v = tx.readU64(addr) + 1;
                tx.writeU64(addr, v);
                model[addr] = model.count(addr) ? model[addr] + 1 : 1;
            } else {
                std::uint64_t v = rng.next();
                tx.writeU64(addr, v);
                model[addr] = v;
            }
        }
        std::vector<Op> ops;
        tx.commit(ops);
        EXPECT_FALSE(ops.empty());
    }

    for (const auto &[addr, value] : model)
        ASSERT_EQ(shadow.readU64(addr), value) << std::hex << addr;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndoTxProperty,
                         ::testing::Values(101, 202, 303, 404));

} // anonymous namespace
} // namespace cnvm
