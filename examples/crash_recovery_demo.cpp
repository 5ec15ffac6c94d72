/**
 * @file
 * Crash-recovery demonstration: the paper's Figure 3/4 story, end to
 * end, with real AES-CTR ciphertext.
 *
 * A persistent B-tree runs under three designs. At a random point, the
 * power fails: caches and unready write-queue entries are lost, the
 * ADR logic drains the ready entries, and recovery software decrypts
 * the surviving image with the persisted counters and replays the undo
 * log.
 *
 *   - SCA (the proposal)        -> recovers at every crash point
 *   - FCA (all writes atomic)   -> recovers at every crash point
 *   - Unsafe (no atomicity)     -> decryption fails: the counter for
 *     the log's CounterAtomic valid flag was still in the (volatile)
 *     counter cache when the power failed.
 *
 * Exits 1, naming the design, when a design breaks that story.
 */

#include <cstdio>

#include "core/system.hh"

using namespace cnvm;

namespace
{

/** How a design's crash points recovered. */
struct Counts
{
    unsigned consistent = 0;
    unsigned inconsistent = 0;
    unsigned rollbacks = 0;
};

Counts
demonstrate(DesignPoint design, Tick total_runtime)
{
    std::printf("== %s ==\n", designName(design));

    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = WorkloadKind::BTree;
    cfg.wl.regionBytes = 512 << 10;
    cfg.wl.txnTarget = 40;
    cfg.wl.recordDigests = true;

    Counts n;
    const int points = 10;
    for (int i = 1; i <= points; ++i) {
        System sys(cfg);
        Tick crash_at = total_runtime * i / (points + 1);
        RunResult result = sys.runWithCrashAt(crash_at);
        if (!result.crashed)
            continue;

        auto reports = sys.recoverAll();
        const RecoveryReport &report = reports.at(0);
        if (report.consistent) {
            ++n.consistent;
            n.rollbacks += report.rolledBack ? 1 : 0;
            std::printf("  crash @%6.1f us -> recovered to txn %llu/%llu"
                        "%s\n",
                        static_cast<double>(crash_at) / 1e6,
                        static_cast<unsigned long long>(
                            report.committedTxns),
                        static_cast<unsigned long long>(
                            sys.workload(0).txnsIssued()),
                        report.rolledBack ? " (undo log rolled back)"
                                          : "");
        } else {
            ++n.inconsistent;
            std::printf("  crash @%6.1f us -> INCONSISTENT: %s\n",
                        static_cast<double>(crash_at) / 1e6,
                        report.detail.c_str());
        }
    }
    std::printf("  summary: %u consistent, %u inconsistent, "
                "%u rollbacks\n\n",
                n.consistent, n.inconsistent, n.rollbacks);
    return n;
}

} // anonymous namespace

int
main()
{
    std::printf("Crash consistency in encrypted NVMM: counter-mode "
                "encryption needs counter-atomicity.\n");
    std::printf("(paper sections 2.2 and 3: a line whose data and "
                "counter persist out of sync decrypts to garbage)\n\n");

    // Learn the total runtime once so crash points span the execution.
    SystemConfig probe;
    probe.workload = WorkloadKind::BTree;
    probe.wl.regionBytes = 512 << 10;
    probe.wl.txnTarget = 40;
    probe.design = DesignPoint::SCA;
    Tick total = System(probe).run().endTick;

    const Counts sca = demonstrate(DesignPoint::SCA, total);
    const Counts fca = demonstrate(DesignPoint::FCA, total);
    const Counts unsafe = demonstrate(DesignPoint::Unsafe, total);
    if (sca.inconsistent != 0 || fca.inconsistent != 0) {
        std::printf("%s recovered inconsistently at a crash point\n",
                    sca.inconsistent != 0 ? "SCA" : "FCA");
        return 1;
    }
    if (unsafe.inconsistent == 0) {
        std::printf("Unsafe recovered at every crash point\n");
        return 1;
    }

    std::printf("The Unsafe design shows the Figure-4 failure: the "
                "commit record's data reached NVMM but its counter\n"
                "was lost with the counter cache, so recovery decrypts "
                "the log header with a stale counter and fails.\n");
    return 0;
}
