/**
 * @file
 * cnvm_crash_sweep — crash-point sweep and recoverability matrix.
 *
 * Sweeps K power-failure points (absolute ticks plus semantic
 * controller-event triggers) across one design or all of them, runs
 * recovery at every point, and classifies each post-crash image with
 * the crash oracle:
 *
 *   cnvm_crash_sweep --design SCA --points 50
 *   cnvm_crash_sweep --design Unsafe --points 50 --verbose
 *   cnvm_crash_sweep --points 20            # matrix over every design
 *   cnvm_crash_sweep --points 50 --faults --integrity
 *
 * The sweep runs each design once and classifies a persistent-state
 * fork captured at every point (SweepMode::Fork; the replay reference
 * it reproduces is pinned by the ForkSweep tests). It is deterministic
 * for a fixed --seed: same points, same classifications, same
 * fingerprint. With --faults the same holds for a fixed --fault-seed:
 * every point receives the same media-fault dose with a per-point RNG
 * stream, identical at any job count.
 *
 * Exit status: 0 when every design behaved as designed, 1 otherwise,
 * 2 on usage errors. "As designed" means:
 *
 *   - clean sweep: crash-consistent designs recovered at every reached
 *     point; Unsafe (the negative control, when swept) exhibited at
 *     least one counter/data mismatch;
 *   - --faults --integrity: NO point anywhere classified as
 *     silent-corruption (the headline integrity invariant), and every
 *     recovery failure of a crash-consistent design is a detected one;
 *   - --faults without --integrity: the matrix as a whole must
 *     demonstrate at least one silent-corruption point — this is the
 *     negative control proving the faults bite and that, without the
 *     integrity metadata, they bite silently.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/crash_sweep.hh"
#include "core/recovery_crash.hh"
#include "runner/runner.hh"
#include "tool_args.hh"

using namespace cnvm;
using toolargs::shortDesignName;

namespace
{

struct Options : toolargs::CommonArgs
{
    unsigned points = 20;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(code == 0 ? stdout : stderr,
                 R"(cnvm_crash_sweep — crash-point sweep over the design space

options:
  --design NAME     sweep one design (default: all of them)
  --points K        crash points per design (default 20)
  --jobs N          worker threads classifying crash points (default:
                    hardware concurrency; results are identical at any N)
  --recovery-crashes R
                    run the crash-during-recovery sweep instead: per
                    design, capture --points crashed images, then
                    interrupt write-back recovery at R planned steps
                    (mid-pre-scan, mid-rollback, around the log
                    invalidation), re-run it, and gate on idempotence —
                    every interrupted-then-completed recovery must
                    converge to the single-shot digest and report
  --workload NAME   array | queue | hash | btree | rbtree (default array)
  --cores N         number of cores (default 1)
  --channels N      memory channels sharding the address space
                    (power of two; default 1)
  --txns N          transactions per core (default 40)
  --footprint-kb N  per-core region size (default 256)
  --cc-kb N         total counter cache KB, split evenly across the
                    channels (power of two, at least --channels;
                    default 16: small, so dirty evictions are
                    reachable crash states)
  --seed N          workload seed (default 1)
  --faults          dose every crash point with media faults (torn line
                    writes, bit flips, counter corruption/rollback, ADR
                    energy loss); deterministic per --fault-seed
  --fault-seed N    base seed of the per-point fault RNG streams
                    (default 1; requires --faults)
  --replays         add a replay dose to every faulted point: whole
                    stale (ciphertext, counter, MAC) triples are
                    re-installed — internally consistent, so per-line
                    MACs verify (requires --faults)
  --integrity       arm the per-line integrity MACs: recovery verifies
                    every line, repairs counters by bounded trial
                    re-decryption, and quarantines what it cannot fix.
                    With --faults the sweep gates on the headline
                    invariant — zero silent-corruption points
  --integrity-tree  arm the counter integrity tree on top of the MACs
                    (implies --integrity): recovery verifies the tree
                    root first and catches replayed counters per line.
                    With --faults --replays the gate extends to zero
                    silent-replay points
  --verbose         print every crash point, not just the matrix row
  --fingerprint     print the deterministic sweep fingerprint
  --help            this text
)");
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.cfg.wl.regionBytes = 256u << 10;
    opt.cfg.wl.txnTarget = 40;
    opt.cfg.wl.computePerTxn = 100;
    opt.cfg.wl.recordDigests = true;
    opt.cfg.wl.setupFill = 0.3;
    opt.cfg.memctl.counterCacheBytes = 16u << 10;

    toolargs::parseArgs(
        argc, argv, opt, toolargs::FlagSet::CrashRuns, usage,
        [&](toolargs::ArgReader &a) {
            if (a.is("--points"))
                opt.points = a.positive();
            else if (a.is("--txns"))
                opt.cfg.wl.txnTarget = a.positive();
            else
                return false;
            return true;
        });

    opt.cfg.wl.seed = opt.seed;
    if (opt.jobs == 0)
        opt.jobs = WorkPool::hardwareJobs();
    if (opt.designs.empty()) {
        for (DesignPoint d : allDesignPoints())
            opt.designs.push_back(d);
    }
    return opt;
}

/** Matrix-level tallies the per-design sweeps accumulate into. */
struct MatrixTotals
{
    unsigned silent = 0;       //!< silent-corruption points
    unsigned silentReplay = 0; //!< silent-replay points
    std::uint64_t replaysCaught = 0; //!< replayed lines recovery caught
};

/** Sweeps one design; returns whether it behaved as designed and adds
 *  its silent/replay points into @p totals. */
bool
sweepDesign(const Options &opt, DesignPoint design, MatrixTotals &totals)
{
    SystemConfig cfg = opt.cfg;
    cfg.design = design;

    SweepOptions sweep_opt;
    sweep_opt.points = opt.points;
    sweep_opt.mode = SweepMode::Fork;
    sweep_opt.jobs = opt.jobs;
    sweep_opt.faults = opt.dose();
    SweepResult result = runSweep(cfg, sweep_opt);

    if (opt.verbose) {
        for (const SweepPoint &p : result.points) {
            if (!p.crashed) {
                std::printf("  %-20s unreached (run completed first)\n",
                            p.spec.describe().c_str());
                continue;
            }
            std::printf("  %-20s %-22s tick=%llu q=%u/%u pipe=%u "
                        "mismatched=%llu committed=%llu",
                        p.spec.describe().c_str(), crashClassName(p.cls),
                        static_cast<unsigned long long>(p.snapshot.tick),
                        p.snapshot.dataQueue, p.snapshot.ctrQueue,
                        p.snapshot.pipeline,
                        static_cast<unsigned long long>(p.mismatchedLines),
                        static_cast<unsigned long long>(p.committedTxns));
            if (opt.faults)
                std::printf(" faulted=%llu det=%llu rep=%llu unrec=%llu",
                            static_cast<unsigned long long>(p.faultedLines),
                            static_cast<unsigned long long>(
                                p.detectedCorruptions),
                            static_cast<unsigned long long>(p.repairedLines),
                            static_cast<unsigned long long>(
                                p.unrecoverableLines));
            if (opt.replays)
                std::printf(" replayed=%llu caught=%llu",
                            static_cast<unsigned long long>(
                                p.replayedLines),
                            static_cast<unsigned long long>(
                                p.replaysDetected));
            std::printf("%s%s\n", p.detail.empty() ? "" : " : ",
                        p.detail.c_str());
        }
    }

    unsigned reached =
        static_cast<unsigned>(result.points.size()) -
        result.unreachedPoints();
    std::printf("%-13s %7u %8u %11u %10u %9u %9u %9u %9u %7u %7u %7u\n",
                shortDesignName(design),
                static_cast<unsigned>(result.points.size()), reached,
                result.countOf(CrashClass::Consistent),
                result.countOf(CrashClass::TornData),
                result.countOf(CrashClass::TornCounter) +
                    result.countOf(CrashClass::CounterDataMismatch),
                result.countOf(CrashClass::Inconsistent),
                result.inconsistentPoints(),
                result.countOf(CrashClass::DetectedCorruption),
                result.silentPoints(),
                result.replayDetectedPoints(),
                result.silentReplayPoints());

    if (opt.fingerprint)
        std::printf("  fingerprint(%s): %s\n", shortDesignName(design),
                    result.fingerprint().c_str());

    totals.silent += result.silentPoints();
    totals.silentReplay += result.silentReplayPoints();
    totals.replaysCaught += result.totalOf(&SweepPoint::replaysDetected);

    if (opt.faults && opt.integrity()) {
        // The headline invariant: with integrity metadata armed, no
        // injected fault is ever silent — and with the tree on top,
        // no replay is either. Crash-consistent designs may fail
        // recovery under media faults, but only detectably; the
        // negative control must still demonstrate *some* failure.
        if (result.silentPoints() != 0)
            return false;
        if (opt.integrityTree() && result.silentReplayPoints() != 0)
            return false;
        // MAC-only replays are *expected* to slip: the stale triple
        // verifies. They count as accounted-for failures here and the
        // matrix-level gate in main() requires they actually occur.
        unsigned accounted =
            result.countOf(CrashClass::DetectedCorruption)
            + result.replayDetectedPoints();
        if (!opt.integrityTree())
            accounted += result.silentReplayPoints();
        if (designCrashConsistent(design))
            return result.inconsistentPoints() == accounted;
        return result.mismatchPoints() + accounted >= 1;
    }
    if (opt.faults) {
        // Integrity off: nothing to assert per design — recovery may
        // fail any which way. The matrix-level negative gate in main()
        // requires at least one silent point across the sweep.
        return true;
    }

    if (designCrashConsistent(design))
        return result.inconsistentPoints() == 0;
    // The negative control must demonstrate the Figure-4 failure:
    // at least one reached point with a counter/data mismatch.
    return result.mismatchPoints() >= 1;
}

/** Crash-during-recovery sweep of one design; true iff idempotent. */
bool
recrashDesign(const Options &opt, DesignPoint design)
{
    SystemConfig cfg = opt.cfg;
    cfg.design = design;

    RecoveryCrashOptions rc_opt;
    rc_opt.points = opt.recoveryCrashes;
    rc_opt.images = opt.points;
    rc_opt.jobs = opt.jobs;
    rc_opt.faults = opt.dose();

    RecoveryCrashResult result = runRecoveryCrashSweep(cfg, rc_opt);

    if (opt.verbose) {
        for (const RecoveryCrashPoint &p : result.points) {
            std::printf("  img%-3zu %-18s %s%s%s\n", p.imageIndex,
                        p.spec.describe().c_str(),
                        p.fired ? "fired " : "unfired ",
                        p.divergent ? "DIVERGENT" : "converged",
                        p.detail.empty() ? "" : (" : "
                            + p.detail).c_str());
        }
    }

    std::printf("%-13s %7u %8u %11zu %10u %9u\n",
                shortDesignName(design), opt.points, result.images,
                result.points.size(), result.firedPoints(),
                result.divergentPoints());

    if (opt.fingerprint)
        std::printf("  fingerprint(%s): %s\n", shortDesignName(design),
                    result.fingerprint().c_str());

    // The gate: interruptions actually happened, and every
    // interrupted-then-completed recovery converged.
    return !result.points.empty() && result.firedPoints() > 0
        && result.divergentPoints() == 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    if (opt.recoveryCrashes > 0) {
        std::printf("crash-during-recovery sweep: %u images/design, "
                    "%u interruption points/design, workload %s, "
                    "%u core(s), %u txns, seed %llu, %u job(s)%s%s\n",
                    opt.points, opt.recoveryCrashes,
                    workloadKindName(opt.cfg.workload), opt.cfg.numCores,
                    opt.cfg.wl.txnTarget,
                    static_cast<unsigned long long>(opt.cfg.wl.seed),
                    opt.jobs,
                    opt.faults ? ", media faults" : "",
                    opt.integrityTree() ? ", integrity tree"
                        : opt.integrity() ? ", integrity MACs" : "");
        std::printf("%-13s %7s %8s %11s %10s %9s\n", "design", "images",
                    "captured", "points", "fired", "divergent");
        bool all_ok = true;
        for (DesignPoint d : opt.designs) {
            if (!recrashDesign(opt, d)) {
                all_ok = false;
                std::printf("  ^^ %s: interrupted recovery diverged "
                            "from the single-shot result\n",
                            shortDesignName(d));
            }
        }
        return all_ok ? 0 : 1;
    }

    std::printf("crash-point sweep: %u points/design, workload %s, "
                "%u core(s), %u txns, seed %llu, %u job(s)%s%s%s\n",
                opt.points, workloadKindName(opt.cfg.workload),
                opt.cfg.numCores, opt.cfg.wl.txnTarget,
                static_cast<unsigned long long>(opt.cfg.wl.seed),
                opt.jobs,
                opt.faults ? ", media faults" : "",
                opt.replays ? " + replays" : "",
                opt.integrityTree() ? ", integrity tree"
                    : opt.integrity() ? ", integrity MACs" : "");
    std::printf("%-13s %7s %8s %11s %10s %9s %9s %9s %9s %7s %7s %7s\n",
                "design", "points", "reached", "consistent", "torn-data",
                "torn-ctr", "other", "inconsist", "detected", "silent",
                "rp-det", "rp-sil");

    bool all_ok = true;
    MatrixTotals totals;
    for (DesignPoint d : opt.designs) {
        if (!sweepDesign(opt, d, totals)) {
            all_ok = false;
            std::printf("  ^^ %s did not behave as designed\n",
                        shortDesignName(d));
        }
    }
    unsigned total_silent = totals.silent;

    if (opt.replays) {
        if (opt.integrityTree()) {
            // The replay dose must bite *and* be caught: across the
            // matrix, recovery caught at least one replayed line.
            // (A dose nothing detects would make the zero-silent gate
            // above vacuous.)
            if (totals.replaysCaught == 0) {
                all_ok = false;
                std::printf("^^ no replay caught anywhere: the replay "
                            "dose did not bite\n");
            } else {
                std::printf("replay control: %llu replayed line(s) "
                            "caught by the integrity tree\n",
                            static_cast<unsigned long long>(
                                totals.replaysCaught));
            }
        } else {
            // Negative control: without the tree, replayed triples
            // verify per line and at least one point must consume one
            // silently — proving the attack works against MACs alone.
            if (totals.silentReplay == 0) {
                all_ok = false;
                std::printf("^^ no silent replay anywhere: the replay "
                            "dose did not demonstrate the MAC-only "
                            "failure mode\n");
            } else {
                std::printf("negative control: %u silent-replay "
                            "point(s) without the integrity tree\n",
                            totals.silentReplay);
            }
        }
    }

    if (opt.faults && !opt.integrity()) {
        // Negative control: without integrity metadata, the injected
        // faults must produce at least one silent corruption somewhere
        // in the matrix — otherwise the fault model is toothless and
        // the zero-silent gate above proves nothing.
        if (total_silent == 0) {
            all_ok = false;
            std::printf("^^ no silent corruption anywhere: the fault "
                        "dose did not demonstrate the unprotected "
                        "failure mode\n");
        } else {
            std::printf("negative control: %u silent-corruption "
                        "point(s) without integrity metadata\n",
                        total_silent);
        }
    }
    return all_ok ? 0 : 1;
}
